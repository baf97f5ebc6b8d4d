//! The rooted directory behind the real-file backends, and the checked
//! end of a write.

use std::fs;
use std::path::{Component, Path, PathBuf};

use crate::error::FsError;

/// `offset + len` as a file position the kernel accepts (it fits
/// `off_t`); anything else is what `pwrite` calls `EINVAL`. Offsets
/// arrive off the wire, so the sum is checked, never wrapped.
pub(crate) fn end_of(offset: u64, len: usize) -> Result<u64, FsError> {
    u64::try_from(len)
        .ok()
        .and_then(|len| offset.checked_add(len))
        .filter(|&end| i64::try_from(end).is_ok())
        .ok_or_else(|| FsError::Io(std::io::ErrorKind::InvalidInput.into()))
}

/// A directory every backend path is resolved under. [`crate::LocalFs`]
/// and [`crate::SubmitFs`] differ in how a file's bytes move, not in
/// which files exist: naming, the path-escape guard, and the
/// directory walk live here once.
#[derive(Debug)]
pub(crate) struct RootDir(PathBuf);

impl RootDir {
    /// Root at `path`, creating the directory if needed.
    pub(crate) fn create(path: PathBuf) -> Result<Self, FsError> {
        fs::create_dir_all(&path)?;
        Ok(RootDir(path))
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }

    /// The full path of backend path `path`, which must stay under the
    /// root: absolute paths and `..` components are refused.
    fn resolve(&self, path: &str) -> Result<PathBuf, FsError> {
        let rel = Path::new(path);
        if rel.is_absolute()
            || rel
                .components()
                .any(|c| matches!(c, Component::ParentDir | Component::RootDir))
        {
            return Err(FsError::InvalidPath {
                path: path.to_string(),
            });
        }
        Ok(self.0.join(rel))
    }

    /// Create (or truncate) `path` for reading and writing, with any
    /// missing parent directories.
    pub(crate) fn create_file(&self, path: &str) -> Result<fs::File, FsError> {
        let full = self.resolve(path)?;
        if let Some(parent) = full.parent() {
            fs::create_dir_all(parent)?;
        }
        Ok(fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(full)?)
    }

    /// Open the existing file `path` for reading and writing; returns
    /// it with its current length.
    pub(crate) fn open_file(&self, path: &str) -> Result<(fs::File, u64), FsError> {
        let full = self.existing(path)?;
        let file = fs::OpenOptions::new().read(true).write(true).open(full)?;
        let len = file.metadata()?.len();
        Ok((file, len))
    }

    pub(crate) fn exists(&self, path: &str) -> bool {
        self.resolve(path).map(|p| p.is_file()).unwrap_or(false)
    }

    pub(crate) fn remove(&self, path: &str) -> Result<(), FsError> {
        fs::remove_file(self.existing(path)?)?;
        Ok(())
    }

    /// Every file under the root, as sorted `/`-separated relative paths.
    pub(crate) fn list(&self) -> Vec<String> {
        fn walk(dir: &Path, prefix: &str, out: &mut Vec<String>) {
            let Ok(entries) = fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let rel = if prefix.is_empty() {
                    name.clone()
                } else {
                    format!("{prefix}/{name}")
                };
                let p = entry.path();
                if p.is_dir() {
                    walk(&p, &rel, out);
                } else {
                    out.push(rel);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.0, "", &mut out);
        out.sort();
        out
    }

    /// The full path of `path`, which must name an existing file.
    fn existing(&self, path: &str) -> Result<PathBuf, FsError> {
        let full = self.resolve(path)?;
        if !full.is_file() {
            return Err(FsError::NotFound {
                path: path.to_string(),
            });
        }
        Ok(full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_of_checks_the_sum() {
        assert_eq!(end_of(4, 6).unwrap(), 10);
        assert!(end_of(u64::MAX - 1, 3).is_err());
        assert!(end_of(i64::MAX as u64, 1).is_err());
    }
}
