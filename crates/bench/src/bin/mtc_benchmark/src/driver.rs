//! The closed loop: one operation in flight, replication pumped inline on
//! an operation-count cadence, latencies kept in a pre-allocated buffer.

use std::time::{Duration, Instant};

use mtc_engine::ExecMetrics;

use crate::trace::Tracer;
use crate::workloads::Runner;

/// Latency samples kept per phase. The buffer is allocated and touched
/// before the phase starts, so the driver neither allocates while timing nor
/// makes `peak_rss_mb` depend on how many operations a run completes.
const SAMPLE_CAPACITY: usize = 1 << 20;

/// Slices kept per phase (a slice is about half a second of work).
const SLICE_CAPACITY: usize = 1 << 12;

/// How long a phase runs: until it has lasted `time` and has completed
/// `ops` operations, whichever comes later, and then to the end of the
/// slice it is in.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub time: Duration,
    pub ops: u64,
    /// Operations per slice; a multiple of the pump cadence, so every slice
    /// holds the same number of pumps.
    pub slice_ops: u64,
}

impl Limit {
    /// Exactly `ops` operations in one slice, however long they take.
    pub fn ops(ops: u64) -> Limit {
        Limit {
            time: Duration::ZERO,
            ops,
            slice_ops: ops,
        }
    }
}

/// A run of `Limit::slice_ops` consecutive operations and the pumps among
/// them. The host this runs on slows down for seconds at a time; statistics
/// taken per slice and then across slices can leave those seconds out.
pub struct Slice {
    /// From the end of the previous slice to the end of this one.
    pub wall: Duration,
    /// `Phase::samples_ns[..samples_end]` were taken up to the end of this
    /// slice.
    pub samples_end: usize,
}

/// What a phase measured.
#[derive(Default)]
pub struct Phase {
    pub ops: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
    pub first_error: Option<String>,
    /// First operation's start to the last operation's (or pump's) end.
    pub wall: Duration,
    pub pumps: u64,
    /// Pumps that returned `Err`; the next cadence tick retried them.
    pub pump_errors: u64,
    pub pump_wall: Duration,
    /// Client-visible latency of every `sample_stride`-th operation, ns.
    pub samples_ns: Vec<u32>,
    /// Sum of the successful operations' execution metrics.
    pub metrics: ExecMetrics,
    /// The same sum over the first `Limit::ops` operations only. How many
    /// operations a phase completes depends on the machine; what these did
    /// depends on the seed alone, so counts taken here repeat exactly.
    pub counted: ExecMetrics,
    pub counted_ops: u64,
    pub slices: Vec<Slice>,
}

impl Phase {
    /// Round trips the counted operations paid to the backend (peer hops
    /// excluded).
    pub fn backend_rtts(&self) -> u64 {
        self.counted.remote_rtts - self.counted.peer_rtts
    }

    pub fn backend_rtts_per_op(&self) -> f64 {
        self.backend_rtts() as f64 / self.counted_ops.max(1) as f64
    }

    pub fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.ops.max(1) as f64
    }

    /// The latency samples of each slice, in run order.
    pub fn slice_samples(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.slices.iter().map(|s| s.samples_end));
        starts
            .zip(&self.slices)
            .map(|(start, slice)| &self.samples_ns[start..slice.samples_end])
    }
}

/// Runs `runner` for `limit`. With `keep_samples`, latencies are recorded;
/// with a tracer, a span per sampled operation and per pump half as well.
pub fn run(
    runner: &mut Runner,
    limit: Limit,
    keep_samples: bool,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase {
        counted_ops: limit.ops,
        slices: Vec::with_capacity(SLICE_CAPACITY),
        ..Phase::default()
    };
    if keep_samples {
        // Filling (not just reserving) makes the pages resident now.
        phase.samples_ns = vec![1; SAMPLE_CAPACITY];
        phase.samples_ns.clear();
    }
    let stride = runner.spec.sample_stride as u64;
    let pump_every = runner.spec.pump_every as u64;
    let begin = Instant::now();
    let mut now = begin;
    let mut slice_begin = begin;
    while phase.ops < limit.ops
        || now.duration_since(begin) < limit.time
        || !phase.ops.is_multiple_of(limit.slice_ops)
    {
        let op = runner.step();
        now = op.end;
        let sampled = phase.ops.is_multiple_of(stride);
        phase.ops += 1;
        if sampled && phase.samples_ns.len() < phase.samples_ns.capacity() {
            let ns = op.end.duration_since(op.start).as_nanos();
            phase.samples_ns.push(ns.min(u32::MAX as u128) as u32);
        }
        if let (true, Some(t)) = (sampled, tracer.as_deref_mut()) {
            t.add(op.label, runner.ops_done, None, op.start, op.end);
        }
        match op.result {
            Ok(m) => phase.metrics.absorb(&m),
            Err(e) => {
                phase.failed += 1;
                phase.first_error.get_or_insert_with(|| e.to_string());
            }
        }
        if phase.ops == limit.ops {
            phase.counted = phase.metrics;
        }
        if runner.ops_done.is_multiple_of(pump_every) {
            let (times, result) = runner.dep.pump();
            now = times.end;
            phase.pumps += 1;
            phase.pump_errors += u64::from(result.is_err());
            phase.pump_wall += times.end.duration_since(times.start);
            if let Some(t) = tracer.as_deref_mut() {
                let op_id = runner.ops_done;
                let pump = t.add("replication.hub.pump", op_id, None, times.start, times.end);
                t.add(
                    "replication.hub.log_reader",
                    op_id,
                    pump,
                    times.start,
                    times.read,
                );
                t.add(
                    "replication.hub.distribute",
                    op_id,
                    pump,
                    times.read,
                    times.end,
                );
            }
        }
        if phase.ops.is_multiple_of(limit.slice_ops) && phase.slices.len() < phase.slices.capacity()
        {
            phase.slices.push(Slice {
                wall: now.duration_since(slice_begin),
                samples_end: phase.samples_ns.len(),
            });
            slice_begin = now;
        }
    }
    phase.wall = now.duration_since(begin);
    phase
}
