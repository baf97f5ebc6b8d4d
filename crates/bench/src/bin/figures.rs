//! Regenerate the paper's tables and figures — the deterministic model
//! reports committed as `results/<report>.txt`:
//!
//! ```sh
//! cargo run --release -p panda-bench --bin figures -- <report>|all [--quick] [--csv] [--out-dir DIR]
//! ```
//!
//! `<report>` is one of `panda_bench::figures::REPORTS`. `--quick` and
//! `--csv` shape the `fig3`..`fig9` sweeps; `--out-dir DIR` writes
//! `DIR/<report>.txt` instead of printing.

use panda_bench::figures::{render, HarnessOpts, REPORTS};

fn usage() -> ! {
    let names = REPORTS.join("|");
    eprintln!("usage: figures <{names}|all> [--quick] [--csv] [--out-dir DIR]");
    std::process::exit(2);
}

fn main() {
    let mut opts = HarnessOpts::default();
    let mut which = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--csv" => opts.csv = true,
            "--out-dir" => out_dir = Some(args.next().unwrap_or_else(|| usage())),
            name if which.is_none() && (name == "all" || REPORTS.contains(&name)) => {
                which = Some(arg)
            }
            _ => usage(),
        }
    }
    let which = which.unwrap_or_else(|| usage());
    for name in REPORTS.iter().filter(|n| which == "all" || which == **n) {
        let text = render(name, &opts).expect("every listed report renders");
        match &out_dir {
            None => print!("{text}"),
            Some(dir) => {
                std::fs::create_dir_all(dir).expect("create output directory");
                let path = format!("{dir}/{name}.txt");
                std::fs::write(&path, text).expect("write report");
                println!("wrote {path}");
            }
        }
    }
}
