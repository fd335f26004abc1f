//! The traced decomposition: the same steps `TwoPcp::decompose_source`
//! takes, called directly, with timing wrappers around the block source,
//! the unit store and the store's background prefetch reader. No library
//! code changes; the wrappers forward every trait method, so the traced
//! run takes the same code path as the untraced one and must produce a
//! bitwise-equal result.

use crate::decompose::{Paths, MODEL_NAME};
use crate::report::{median, Metrics};
use crate::workloads::Decomp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tpcp_cp::{cp_als_dense, mttkrp_dense_kernel, AlsOptions};
use tpcp_par::ParConfig;
use tpcp_partition::{Block, BlockSource, Grid, SourceResult};
use tpcp_schedule::UnitId;
use tpcp_storage::{
    DiskStore, PageRead, PrefetchRead, PrefetchSource, ShardedStore, UnitData, UnitStore,
};
use twopcp::accuracy::blockwise_fit_source;
use twopcp::{
    naive_cp_out_of_core, refine, run_phase1_source, Model, NaiveOocOptions, TwoPcpConfig,
    TwoPcpOutcome,
};

/// Calls, busy time and bytes at one layer boundary.
#[derive(Default)]
pub struct Clock {
    calls: AtomicU64,
    ns: AtomicU64,
    bytes: AtomicU64,
}

#[derive(Clone, Copy, Default)]
pub struct Reading {
    pub calls: u64,
    pub secs: f64,
    pub bytes: u64,
}

impl Clock {
    fn add(&self, since: Instant, bytes: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn read(&self) -> Reading {
        Reading {
            calls: self.calls.load(Ordering::Relaxed),
            secs: self.ns.load(Ordering::Relaxed) as f64 * 1e-9,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for Reading {
    type Output = Reading;
    fn sub(self, rhs: Reading) -> Reading {
        Reading {
            calls: self.calls - rhs.calls,
            secs: self.secs - rhs.secs,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

/// Times `BlockSource::load_block`.
pub struct TimedSource<'a> {
    inner: &'a mut dyn BlockSource,
    pub clock: Clock,
}

impl BlockSource for TimedSource<'_> {
    fn dims(&self) -> &[usize] {
        self.inner.dims()
    }

    fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block> {
        let t = Instant::now();
        let block = self.inner.load_block(grid, lin);
        let bytes = block.as_ref().map_or(0, |b| b.payload_bytes() as u64);
        self.clock.add(t, bytes);
        block
    }

    fn bytes_loaded(&self) -> u64 {
        self.inner.bytes_loaded()
    }
}

/// The unit store's clocks, shared with its prefetch readers.
#[derive(Default)]
pub struct StoreClocks {
    pub write: Clock,
    /// Synchronous reads (`read` and `read_slab`): the critical path.
    pub read: Clock,
    /// Reads made by the background prefetch worker.
    pub prefetch: Clock,
}

/// Times the `UnitStore` methods that move pages and forwards the rest.
pub struct TimedStore<S> {
    inner: S,
    clocks: Arc<StoreClocks>,
}

impl<S: UnitStore> UnitStore for TimedStore<S> {
    fn write(&mut self, data: &UnitData) -> tpcp_storage::Result<()> {
        let t = Instant::now();
        let r = self.inner.write(data);
        self.clocks.write.add(t, data.payload_bytes() as u64);
        r
    }

    fn read(&mut self, unit: UnitId) -> tpcp_storage::Result<UnitData> {
        let t = Instant::now();
        let r = self.inner.read(unit);
        let bytes = r.as_ref().map_or(0, |d| d.payload_bytes() as u64);
        self.clocks.read.add(t, bytes);
        r
    }

    fn contains(&self, unit: UnitId) -> bool {
        self.inner.contains(unit)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }

    fn shard_hint(&self, unit: UnitId) -> usize {
        self.inner.shard_hint(unit)
    }

    fn read_slab(&mut self, unit: UnitId) -> tpcp_storage::Result<PageRead<'_>> {
        let t = Instant::now();
        let r = self.inner.read_slab(unit);
        let bytes = match &r {
            Ok(PageRead::Owned(d)) => d.payload_bytes() as u64,
            Ok(PageRead::Borrowed(slab)) => slab.len() as u64,
            Err(_) => 0,
        };
        self.clocks.read.add(t, bytes);
        r
    }

    fn note_borrowed_read(&mut self, unit: UnitId, payload_bytes: u64) {
        self.inner.note_borrowed_read(unit, payload_bytes);
    }

    fn warm(&mut self, units: &[UnitId]) {
        self.inner.warm(units);
    }
}

impl<S: PrefetchSource> PrefetchSource for TimedStore<S> {
    fn prefetch_reader(&self) -> Option<Box<dyn PrefetchRead>> {
        let inner = self.inner.prefetch_reader()?;
        Some(Box::new(TimedReader {
            inner,
            clocks: Arc::clone(&self.clocks),
        }))
    }
}

/// Times the boxed background reader.
struct TimedReader {
    inner: Box<dyn PrefetchRead>,
    clocks: Arc<StoreClocks>,
}

impl PrefetchRead for TimedReader {
    fn read(&mut self, unit: UnitId) -> tpcp_storage::Result<UnitData> {
        let t = Instant::now();
        let r = self.inner.read(unit);
        let bytes = r.as_ref().map_or(0, |d| d.payload_bytes() as u64);
        self.clocks.prefetch.add(t, bytes);
        r
    }
}

/// Stage timings of one traced decomposition.
#[derive(Clone, Copy, Default)]
pub struct Layers {
    pub wall_s: f64,
    pub phase1_s: f64,
    pub phase2_s: f64,
    pub fit_pass_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    /// `load_block` in Phase 1.
    pub ingest_p1: Reading,
    /// `load_block` in the exact-fit pass.
    pub ingest_fit: Reading,
    pub unit_write: Reading,
    pub read: Reading,
    pub writeback: Reading,
    pub prefetch: Reading,
}

/// One traced decomposition of the workload's input 0, mirroring
/// `TwoPcp::decompose_source` for a config with a work directory.
pub fn run_traced(
    decomp: &Decomp,
    cfg: &TwoPcpConfig,
    paths: &Paths,
) -> Result<(TwoPcpOutcome, Model, Layers), String> {
    paths
        .fresh_store()
        .map_err(|e| format!("clearing the store: {e}"))?;
    let units = paths.store.join("units");
    let clocks = Arc::new(StoreClocks::default());
    let t = Instant::now();
    let mut file = decomp
        .open(&paths.input(0))
        .map_err(|e| format!("opening the input: {e}"))?;
    let mut src = TimedSource {
        inner: &mut file,
        clock: Clock::default(),
    };
    let traced = if cfg.shards <= 1 {
        let store = DiskStore::open_with(units, cfg.mmap).map_err(|e| e.to_string())?;
        traced_phases(cfg, &mut src, store, &clocks)
    } else {
        let mut store = ShardedStore::open_disk(units, cfg.shards).map_err(|e| e.to_string())?;
        store.set_mmap(cfg.mmap);
        traced_phases(cfg, &mut src, store, &clocks)
    };
    let (outcome, mut layers) = traced.map_err(|e| format!("traced decomposition: {e}"))?;

    let t_save = Instant::now();
    let model = Model::from_outcome(MODEL_NAME, &outcome, cfg);
    model
        .save(paths.model_file())
        .map_err(|e| format!("saving the model: {e}"))?;
    layers.save_s = t_save.elapsed().as_secs_f64();
    layers.wall_s = t.elapsed().as_secs_f64();

    let t_load = Instant::now();
    let loaded = Model::load_shared(paths.model_file()).map_err(|e| e.to_string())?;
    layers.load_s = t_load.elapsed().as_secs_f64();
    if loaded != model {
        return Err("the loaded model differs from the saved one".into());
    }
    Ok((outcome, model, layers))
}

fn traced_phases<S: UnitStore + PrefetchSource>(
    cfg: &TwoPcpConfig,
    src: &mut TimedSource<'_>,
    inner: S,
    clocks: &Arc<StoreClocks>,
) -> twopcp::Result<(TwoPcpOutcome, Layers)> {
    let mut store = TimedStore {
        inner,
        clocks: Arc::clone(clocks),
    };
    let mut layers = Layers::default();

    let t1 = Instant::now();
    let phase1 = run_phase1_source(src, cfg, &mut store)?;
    let phase1_time = t1.elapsed();
    layers.phase1_s = phase1_time.as_secs_f64();
    layers.ingest_p1 = src.clock.read();
    layers.unit_write = clocks.write.read();
    let read0 = clocks.read.read();

    let t2 = Instant::now();
    let refined = refine(&phase1.grid, store, cfg, &phase1.u_norm_sq)?;
    let phase2_time = t2.elapsed();
    layers.phase2_s = phase2_time.as_secs_f64();
    layers.read = clocks.read.read() - read0;
    layers.writeback = clocks.write.read() - layers.unit_write;
    layers.prefetch = clocks.prefetch.read();

    let t3 = Instant::now();
    let fit = blockwise_fit_source(&refined.model, &phase1.grid, src)?;
    layers.fit_pass_s = t3.elapsed().as_secs_f64();
    layers.ingest_fit = src.clock.read() - layers.ingest_p1;

    let outcome = TwoPcpOutcome {
        model: refined.model,
        fit,
        phase1,
        phase2: refined.stats,
        phase1_time,
        phase2_time,
        mr_counters: Default::default(),
        compress: None,
    };
    Ok((outcome, layers))
}

/// Whether two outcomes agree bitwise: fit, weights, factors and
/// swaps per virtual iteration.
pub fn bitwise_equal(a: &TwoPcpOutcome, b: &TwoPcpOutcome) -> Result<(), String> {
    if a.fit.to_bits() != b.fit.to_bits() {
        return Err(format!("fit {} != {}", a.fit, b.fit));
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&a.model.weights) != bits(&b.model.weights) {
        return Err("weights differ".into());
    }
    for (m, (fa, fb)) in a.model.factors.iter().zip(&b.model.factors).enumerate() {
        if bits(fa.as_slice()) != bits(fb.as_slice()) {
            return Err(format!("mode-{m} factor differs"));
        }
    }
    if a.phase2.swaps_per_iteration != b.phase2.swaps_per_iteration {
        return Err("swaps per iteration differ".into());
    }
    Ok(())
}

/// Phase 1's per-block ALS options (`twopcp::phase1` runs every block
/// serially inside one worker, seeded `cfg.seed + block`).
fn block_options(cfg: &TwoPcpConfig, lin: usize) -> AlsOptions {
    AlsOptions {
        rank: cfg.rank,
        max_iters: cfg.phase1.max_iters,
        tol: cfg.phase1.tol,
        ridge: cfg.ridge,
        seed: cfg.seed.wrapping_add(lin as u64),
        init: None,
        par: ParConfig::serial(),
        kernel: cfg.kernel,
        dimtree: cfg.dimtree,
        compress: None,
    }
}

/// Serial block ALS over every block, cross-checked against Phase 1's
/// block fits. Returns (seconds, iterations) or why it does not match.
pub fn replay_block_als(
    decomp: &Decomp,
    cfg: &TwoPcpConfig,
    paths: &Paths,
    outcome: &TwoPcpOutcome,
) -> Result<(f64, usize), String> {
    let grid = &outcome.phase1.grid;
    let mut src = decomp.open(&paths.input(0)).map_err(|e| e.to_string())?;
    let (mut secs, mut iters) = (0.0, 0);
    for lin in 0..grid.num_blocks() {
        let block = src.load_block(grid, lin).map_err(|e| e.to_string())?;
        let x = block.into_dense();
        let t = Instant::now();
        let report = cp_als_dense(&x, &block_options(cfg, lin)).map_err(|e| e.to_string())?;
        secs += t.elapsed().as_secs_f64();
        iters += report.iterations;
        let phase1_fit = outcome.phase1.block_fits[lin];
        if report.final_fit.to_bits() != phase1_fit.to_bits() {
            return Err(format!(
                "block {lin}: serial replay fit {} != phase-1 fit {phase1_fit}",
                report.final_fit
            ));
        }
    }
    Ok((secs, iters))
}

/// One fused MTTKRP at the workload's block shape and rank: GFLOP/s at
/// the full thread budget, and the speed-up of that budget over 1 thread.
pub fn mttkrp_probe(decomp: &Decomp, cfg: &TwoPcpConfig, seed: u64) -> (f64, f64) {
    let grid = Grid::new(decomp.dims, decomp.parts);
    let shape = grid.block_dims(&grid.block_coords(0));
    let mut rng = StdRng::seed_from_u64(seed);
    let x = tpcp_tensor::random_dense(&shape, &mut rng);
    let factors: Vec<_> = shape
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, cfg.rank, &mut rng))
        .collect();
    let refs: Vec<_> = factors.iter().collect();
    let time = |par: &ParConfig| {
        let samples: Vec<f64> = (0..7)
            .map(|_| {
                let t = Instant::now();
                let m = mttkrp_dense_kernel(&x, &refs, 0, par, cfg.kernel).expect("valid MTTKRP");
                std::hint::black_box(m);
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples[1..])
    };
    let full = time(&cfg.par);
    let serial = time(&ParConfig::serial());
    let flops = 2.0 * x.len() as f64 * cfg.rank as f64;
    (flops / full * 1e-9, serial / full)
}

/// The paper's baseline: naive out-of-core CP-ALS on the same tensor.
/// Returns (seconds, fit).
pub fn naive_reference(
    decomp: &Decomp,
    cfg: &TwoPcpConfig,
    paths: &Paths,
    seed: u64,
) -> Result<(f64, f64), String> {
    let x = decomp.generate(seed, 0);
    let mut options = NaiveOocOptions::new(paths.store.join("naive"));
    options.rank = cfg.rank;
    options.parts = decomp.parts.to_vec();
    options.tol = cfg.tol;
    options.ridge = cfg.ridge;
    options.seed = cfg.seed;
    let t = Instant::now();
    let report = naive_cp_out_of_core(&x, &options).map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), report.fit))
}

/// Per-layer metrics of the decomposition stage from the median of
/// `runs` traced decompositions, next to `untraced_s` untraced ones.
pub fn decomposition_metrics(
    m: &mut Metrics,
    outcome: &TwoPcpOutcome,
    runs: &[Layers],
    untraced_s: &[f64],
    model_bytes: u64,
) -> f64 {
    let med = |f: &dyn Fn(&Layers) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let ingest_s = med(&|l| l.ingest_p1.secs + l.ingest_fit.secs);
    let ingest_mb = runs[0].ingest_p1.bytes + runs[0].ingest_fit.bytes;
    m.put("partition.ingest_s", ingest_s, "s");
    m.put(
        "partition.ingest_mb_s",
        ingest_mb as f64 / 1048576.0 / ingest_s,
        "MB/s",
    );

    let phase1_self = med(&|l| l.phase1_s - l.ingest_p1.secs - l.unit_write.secs);
    m.put("phase1.s", med(&|l| l.phase1_s), "s");
    m.put("phase1.self_s", phase1_self, "s");
    m.put(
        "phase1.unit_bytes",
        outcome.phase1.total_unit_bytes as f64,
        "bytes",
    );

    m.put("storage.unit_write_s", med(&|l| l.unit_write.secs), "s");
    m.put("storage.read_s", med(&|l| l.read.secs), "s");
    m.put("storage.reads", runs[0].read.calls as f64, "count");
    m.put("storage.prefetch_read_s", med(&|l| l.prefetch.secs), "s");
    m.put("storage.writeback_s", med(&|l| l.writeback.secs), "s");
    m.put(
        "storage.writebacks",
        runs[0].writeback.calls as f64,
        "count",
    );
    let io = &outcome.phase2.io;
    m.put("storage.swaps", io.swaps() as f64, "count");
    m.put("storage.hit_rate", io.hit_rate(), "ratio");
    let prefetch_frac = if io.fetches == 0 {
        0.0
    } else {
        io.prefetch_hits as f64 / io.fetches as f64
    };
    m.put("storage.prefetch_hit_frac", prefetch_frac, "ratio");
    m.put("storage.stall_ms", io.stall_ns as f64 * 1e-6, "ms");
    m.put(
        "storage.bytes_moved",
        (io.bytes_read + io.bytes_written) as f64,
        "bytes",
    );

    let stats = &outcome.phase2;
    let phase2_s = med(&|l| l.phase2_s);
    m.put("phase2.s", phase2_s, "s");
    m.put(
        "phase2.self_s",
        med(&|l| l.phase2_s - l.read.secs - l.writeback.secs),
        "s",
    );
    m.put(
        "phase2.virtual_iters",
        stats.virtual_iterations as f64,
        "count",
    );
    m.put(
        "phase2.s_per_iter",
        phase2_s / stats.virtual_iterations.max(1) as f64,
        "s",
    );
    m.put(
        "phase2.steady_swaps_per_iter",
        stats.steady_swaps_per_iteration(),
        "count",
    );
    m.put("phase2.qfold_ms", stats.q_hadamard.ns as f64 * 1e-6, "ms");

    m.put("accuracy.fit_pass_s", med(&|l| l.fit_pass_s), "s");
    m.put("accuracy.ingest_s", med(&|l| l.ingest_fit.secs), "s");

    m.put("model.save_s", med(&|l| l.save_s), "s");
    m.put("model.load_s", med(&|l| l.load_s), "s");
    m.put("model.bytes", model_bytes as f64, "bytes");

    m.put(
        "trace.overhead_frac",
        med(&|l| l.wall_s) / median(untraced_s) - 1.0,
        "ratio",
    );
    m.put(
        "trace.untimed_frac",
        med(&|l| 1.0 - (l.phase1_s + l.phase2_s + l.fit_pass_s + l.save_s) / l.wall_s),
        "ratio",
    );
    phase1_self
}
