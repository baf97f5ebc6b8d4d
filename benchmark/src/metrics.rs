//! Every metric the benchmark reports: name, unit, which way is better,
//! and — for end-to-end metrics — the relative worsening that counts as
//! a regression. `BENCHMARK.json` declares the same list; a self-test
//! holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as regressed. `None` for per-layer metrics,
    /// which explain a result and gate nothing.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the runtime sees. Measured with the timing wrappers
/// absent; every workload reports every one.
///
/// The bounds are as wide as they are because of where this runs: on
/// the 2-vCPU shared sandbox the median operation time of one and the
/// same build drifts by 5-15 % between runs minutes apart (see
/// `results/spread.md`), and no estimator or window length tried took
/// that out. A bound inside the drift would fail the benchmark against
/// itself. A gain smaller than a bound is shown with paired runs.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("write_mb_s", "MiB/s", Higher, 0.25),
    e2e("read_mb_s", "MiB/s", Higher, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
];

/// One layer each (the prefix is the module). Ceilings are the layer
/// alone; counts and busy times are from the traced run; `core.*` is
/// derived, there being no public seam inside client and server yet.
pub const PER_LAYER: &[Metric] = &[
    layer("schema.memcpy_gb_s", "GB/s", Higher),
    layer("schema.pack_gb_s", "GB/s", Higher),
    layer("schema.unpack_gb_s", "GB/s", Higher),
    layer("schema.pack_frac_memcpy", "ratio", Higher),
    layer("pool.pack_par_gb_s", "GB/s", Higher),
    layer("plan.build_us", "us", Lower),
    layer("plan.steps", "count", Lower),
    layer("plan.pieces", "count", Lower),
    layer("protocol.codec_ns", "ns", Lower),
    layer("msg.stream_gb_s", "GB/s", Higher),
    layer("msg.rtt_us", "us", Lower),
    layer("msg.sent", "count", Lower),
    layer("msg.sent_bytes", "B", Lower),
    layer("msg.send_busy_s", "s", Lower),
    layer("msg.server_recv_wait_s", "s", Lower),
    layer("msg.polls", "count", Lower),
    layer("msg.poll_hit_ratio", "ratio", Higher),
    layer("fs.write_gb_s", "GB/s", Higher),
    layer("fs.read_gb_s", "GB/s", Higher),
    layer("fs.sync_ms", "ms", Lower),
    layer("fs.write_ops", "count", Lower),
    layer("fs.write_bytes", "B", Lower),
    layer("fs.read_ops", "count", Lower),
    layer("fs.syncs", "count", Lower),
    layer("fs.write_busy_s", "s", Lower),
    layer("fs.read_busy_s", "s", Lower),
    layer("fs.sync_busy_s", "s", Lower),
    layer("fs.bytes_per_user_byte", "ratio", Lower),
    layer("core.write_frac_of_bottleneck", "ratio", Higher),
    layer("core.read_frac_of_bottleneck", "ratio", Higher),
    layer("core.write_serial_sum_ratio", "ratio", Lower),
    layer("core.read_serial_sum_ratio", "ratio", Lower),
    layer("core.write_unattributed_share", "ratio", Lower),
    layer("core.read_unattributed_share", "ratio", Lower),
    layer("op.req_per_s", "1/s", Higher),
    layer("op.write_tail_us", "us", Lower),
    layer("op.read_tail_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("host.spin_ns_before", "ns", Lower),
    layer("host.spin_ns_after", "ns", Lower),
];
