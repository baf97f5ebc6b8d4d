//! End-to-end auto-tuner tests: calibrate against a live deployment,
//! check the closed loop (probe → fit → search → apply), and
//! cross-validate the fitted model against the discrete-event
//! simulation.

use std::sync::Arc;

use panda_core::{
    ArrayMeta, ConfigIssue, OpKind, PandaConfig, PandaError, PandaSystem, ReadSet, TunedConfig,
    WriteSet,
};
use panda_fs::MemFs;
use panda_model::{simulate, Calibrate, CollectiveSpec, TunerOptions};
use panda_obs::TelemetryRecorder;
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

fn session_meta(rows: usize) -> ArrayMeta {
    let shape = Shape::new(&[rows, 128]).unwrap();
    let mem = DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(&[1, 1]).unwrap())
        .unwrap();
    let disk = DataSchema::traditional_order(shape, ElementType::F64, 2).unwrap();
    ArrayMeta::new("tuned", mem, disk).unwrap()
}

fn service_config() -> PandaConfig {
    PandaConfig::new(2, 2)
        .with_subchunk_bytes(32 << 10)
        .with_recorder(Arc::new(TelemetryRecorder::with_ring(1 << 16)))
}

#[test]
fn calibrate_fits_searches_and_applies() {
    let meta = session_meta(256);
    let mut service = PandaSystem::builder()
        .config(service_config())
        .serve(|_| Arc::new(MemFs::new()))
        .unwrap();

    let opts = TunerOptions::default();
    let calibration = service.calibrate(&meta, &opts).unwrap();

    // The probes actually measured something.
    assert!(calibration.costs.write.disk.eval(64 << 10) > 0.0);
    assert_eq!(calibration.costs.num_servers, 2);
    assert_eq!(calibration.costs.probe_io_workers, 2);

    // The full grid was scored (PerCollective policy: nothing pruned),
    // sorted best-first, and the winner validates against the policy.
    let grid = opts.depths.len() * opts.io_workers.len() * opts.subchunk_bytes.len();
    assert_eq!(calibration.candidates.len(), grid);
    let preds: Vec<f64> = calibration
        .candidates
        .iter()
        .map(|c| c.predicted_s)
        .collect();
    assert!(preds.windows(2).all(|w| w[0] <= w[1]));
    assert!(preds.iter().all(|p| p.is_finite() && *p > 0.0));
    let tuned = calibration.tuned;
    assert_eq!(tuned.predicted_s, preds[0]);
    tuned.validate(panda_fs::SyncPolicy::default()).unwrap();

    // Predict() agrees with the scored grid entry.
    let best = &calibration.candidates[0];
    let again = calibration.predict(
        &meta,
        OpKind::Write,
        best.subchunk_bytes,
        best.pipeline_depth,
        best.io_workers,
    );
    assert!((again - best.write_s).abs() < 1e-12);

    // Probe files were cleaned up.
    for fs in &service.system().filesystems {
        assert!(fs.list().iter().all(|f| !f.contains("__panda_probe")));
    }

    // Apply the winner online: the tuned request runs and round-trips.
    let mut session = service.open().unwrap();
    let data: Vec<u8> = (0..meta.client_bytes(0)).map(|i| i as u8).collect();
    session
        .write_set(&WriteSet::new().array(&meta, "t0", &data).tuned(&tuned))
        .unwrap();
    let mut back = vec![0u8; data.len()];
    session
        .read_set(&mut ReadSet::new().array(&meta, "t0", &mut back).tuned(&tuned))
        .unwrap();
    assert_eq!(back, data);

    // And offline: the winner folds into the next launch's config.
    let next = tuned.apply(PandaConfig::new(2, 2));
    assert_eq!(next.subchunk_bytes, tuned.subchunk_bytes);
    assert_eq!(next.pipeline_depth, tuned.pipeline_depth);
    assert_eq!(next.io_workers, tuned.io_workers);

    service.shutdown(vec![session]).unwrap();
}

#[test]
fn fitted_model_cross_validates_against_the_simulation() {
    let meta = session_meta(256);
    let mut service = PandaSystem::builder()
        .config(service_config())
        .serve(|_| Arc::new(MemFs::new()))
        .unwrap();
    let calibration = service.calibrate(&meta, &TunerOptions::default()).unwrap();
    service.shutdown(std::iter::empty()).unwrap();

    // Replay a candidate on the fitted machine through the DES and
    // compare with the analytical prediction. The two models are
    // independent codepaths over the same constants; they should agree
    // to well within an order of magnitude (the DES models per-piece
    // messaging the analytical walk folds into the step overhead).
    let machine = calibration.fitted_machine();
    for &(sub, depth) in &[(32 << 10, 1usize), (64 << 10, 2), (128 << 10, 4)] {
        let spec = CollectiveSpec {
            arrays: vec![meta.clone()],
            op: OpKind::Write,
            num_servers: 2,
            subchunk_bytes: sub,
            fast_disk: false,
            section: None,
        };
        let sim_s = simulate(&machine.clone().with_pipeline_depth(depth), &spec).elapsed;
        let analytic_s = calibration.predict(&meta, OpKind::Write, sub, depth, 1);
        assert!(sim_s > 0.0 && analytic_s > 0.0);
        let ratio = analytic_s / sim_s;
        assert!(
            (0.1..10.0).contains(&ratio),
            "analytic {analytic_s} vs sim {sim_s} at sub={sub} depth={depth}"
        );
    }
}

#[test]
fn calibration_without_a_timeline_is_a_typed_error() {
    let meta = session_meta(64);
    // Default recorder is the NullRecorder: no timeline.
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, 1))
        .serve(|_| Arc::new(MemFs::new()))
        .unwrap();
    let err = service
        .calibrate(&meta, &TunerOptions::default())
        .unwrap_err();
    assert!(matches!(
        err,
        PandaError::Config {
            issue: ConfigIssue::CalibrationNeedsTimeline
        }
    ));
    // The borrowed probe slot was returned.
    assert_eq!(service.slots_remaining(), 1);
    service.shutdown(std::iter::empty()).unwrap();
}

#[test]
fn invalid_overrides_are_rejected_at_submit_time() {
    let meta = session_meta(64);
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, 1))
        .serve(|_| Arc::new(MemFs::new()))
        .unwrap();
    let mut session = service.open().unwrap();
    let data = vec![1u8; meta.client_bytes(0)];

    let zero_sub = TunedConfig::new(0, 1, 1);
    let err = session
        .write_set(&WriteSet::new().array(&meta, "t", &data).tuned(&zero_sub))
        .unwrap_err();
    assert!(matches!(
        err,
        PandaError::Config {
            issue: ConfigIssue::ZeroSubchunkBytes
        }
    ));

    let zero_depth = TunedConfig::new(4096, 0, 1);
    let err = session
        .write_set(&WriteSet::new().array(&meta, "t", &data).tuned(&zero_depth))
        .unwrap_err();
    assert!(matches!(
        err,
        PandaError::Config {
            issue: ConfigIssue::ZeroPipelineDepth
        }
    ));

    let zero_workers = TunedConfig::new(4096, 1, 0);
    let err = session
        .write_set(
            &WriteSet::new()
                .array(&meta, "t", &data)
                .tuned(&zero_workers),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        PandaError::Config {
            issue: ConfigIssue::ZeroIoWorkers
        }
    ));

    // A rejected submit leaves the session usable: a valid override
    // still goes through.
    let ok = TunedConfig::new(4096, 2, 1);
    session
        .write_set(&WriteSet::new().array(&meta, "t", &data).tuned(&ok))
        .unwrap();
    service.shutdown(vec![session]).unwrap();
}

#[test]
fn per_write_sync_rejects_deep_overrides_at_submit_time() {
    let meta = session_meta(64);
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, 1).with_sync_policy(panda_fs::SyncPolicy::PerWrite))
        .serve(|_| Arc::new(MemFs::new()))
        .unwrap();
    let mut session = service.open().unwrap();
    let data = vec![1u8; meta.client_bytes(0)];
    let deep = TunedConfig::new(4096, 4, 1);
    let err = session
        .write_set(&WriteSet::new().array(&meta, "t", &data).tuned(&deep))
        .unwrap_err();
    assert!(matches!(
        err,
        PandaError::Config {
            issue: ConfigIssue::SyncPolicyConflict { pipeline_depth: 4 }
        }
    ));
    service.shutdown(vec![session]).unwrap();
}
