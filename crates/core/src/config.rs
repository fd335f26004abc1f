//! Configuration for the two-phase pipeline.

use crate::{Result, TwoPcpError};
use std::path::PathBuf;
use tpcp_cp::CompressOptions;
use tpcp_linalg::KernelKind;
use tpcp_par::ParConfig;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::{PolicyKind, PrefetchConfig};

/// An invalid configuration: a malformed `TPCP_*` value
/// ([`EnvOverrides::parse`]).
///
/// Converts into [`TwoPcpError::Config`] at the pipeline boundary, so
/// `?` works in driver code while call sites keep the precise type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// What was wrong with the configuration.
    pub reason: String,
}

impl ConfigError {
    fn new(reason: impl Into<String>) -> Self {
        ConfigError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid config: {}", self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for TwoPcpError {
    fn from(e: ConfigError) -> Self {
        TwoPcpError::Config { reason: e.reason }
    }
}

/// Every `TPCP_*` environment override, parsed once, strictly.
///
/// This is the only code in the workspace that reads the environment, and
/// only binaries and examples call it — once, in `main`, applying the
/// result to every config they build ([`EnvOverrides::apply`]). Libraries
/// take explicit configuration only. Unset variables stay `None`; a set
/// variable that does not parse is a [`ConfigError`] naming the variable
/// and its value.
///
/// | variable | grammar |
/// |---|---|
/// | `TPCP_THREADS`, `TPCP_SHARDS` | a positive integer |
/// | `TPCP_PREFETCH` | `0`/`off`/`false`, or a positive pipeline depth |
/// | `TPCP_MMAP`, `TPCP_DIMTREE`, `TPCP_COMPRESS` | `1`/`on`/`true`/`yes` or `0`/`off`/`false`/`no` |
/// | `TPCP_KERNEL` | `reference`/`tiled`/`auto` |
/// | `TPCP_SERVE_ADDR` | any address string |
///
/// Values are trimmed and matched without regard to case.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnvOverrides {
    /// `TPCP_THREADS` → shared worker-thread budget.
    pub par: Option<ParConfig>,
    /// `TPCP_PREFETCH` → prefetch pipeline depth / off.
    pub prefetch: Option<PrefetchConfig>,
    /// `TPCP_SHARDS` → unit-store shard count.
    pub shards: Option<usize>,
    /// `TPCP_MMAP` → zero-copy page read path (unit stores and the
    /// serving registry's model loads).
    pub mmap: Option<bool>,
    /// `TPCP_KERNEL` → compute-kernel backend.
    pub kernel: Option<KernelKind>,
    /// `TPCP_DIMTREE` → dimension-tree MTTKRP path in the Phase-1 ALS.
    pub dimtree: Option<bool>,
    /// `TPCP_COMPRESS` → compress-then-decompose pipeline in the driver.
    pub compress: Option<bool>,
    /// `TPCP_SERVE_ADDR` → serving daemon / client address.
    pub serve_addr: Option<String>,
}

impl EnvOverrides {
    /// Parses every override from the process environment.
    ///
    /// # Errors
    /// [`ConfigError`] naming the first variable whose value does not
    /// parse (a value that is not valid Unicode never parses).
    pub fn from_env() -> std::result::Result<Self, ConfigError> {
        Self::parse(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Parses every override from `lookup`, which maps a variable name to
    /// its value (`None` = unset). Pure, so tests need not touch the
    /// process environment.
    ///
    /// # Errors
    /// [`ConfigError`] naming the first variable whose value does not
    /// parse.
    pub fn parse(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> std::result::Result<Self, ConfigError> {
        fn var<T>(
            lookup: &impl Fn(&str) -> Option<String>,
            name: &str,
            expected: &str,
            grammar: impl Fn(&str) -> Option<T>,
        ) -> std::result::Result<Option<T>, ConfigError> {
            lookup(name)
                .map(|v| {
                    grammar(&v.trim().to_ascii_lowercase()).ok_or_else(|| {
                        ConfigError::new(format!(
                            "{name}: invalid value {v:?} (expected {expected})"
                        ))
                    })
                })
                .transpose()
        }
        const BOOL: &str = "1/on/true/yes or 0/off/false/no";
        let flag = |v: &str| match v {
            "1" | "on" | "true" | "yes" => Some(true),
            "0" | "off" | "false" | "no" => Some(false),
            _ => None,
        };
        let positive = |v: &str| v.parse::<usize>().ok().filter(|&n| n > 0);
        Ok(EnvOverrides {
            par: var(&lookup, "TPCP_THREADS", "a positive integer", |v| {
                positive(v).map(ParConfig::with_threads)
            })?,
            prefetch: var(
                &lookup,
                "TPCP_PREFETCH",
                "0/off/false or a positive depth",
                |v| match v {
                    "0" | "off" | "false" => Some(PrefetchConfig::disabled()),
                    _ => positive(v).map(PrefetchConfig::with_depth),
                },
            )?,
            shards: var(&lookup, "TPCP_SHARDS", "a positive integer", positive)?,
            mmap: var(&lookup, "TPCP_MMAP", BOOL, flag)?,
            kernel: var(&lookup, "TPCP_KERNEL", "reference/tiled/auto", |v| {
                v.parse().ok()
            })?,
            dimtree: var(&lookup, "TPCP_DIMTREE", BOOL, flag)?,
            compress: var(&lookup, "TPCP_COMPRESS", BOOL, flag)?,
            serve_addr: lookup("TPCP_SERVE_ADDR"),
        })
    }

    /// Applies the set overrides to `config`, leaving unset knobs alone.
    #[must_use]
    pub fn apply(&self, mut config: TwoPcpConfig) -> TwoPcpConfig {
        if let Some(par) = self.par {
            config.par = par;
        }
        if let Some(prefetch) = self.prefetch {
            config.prefetch = prefetch;
        }
        if let Some(shards) = self.shards {
            config.shards = shards;
        }
        if let Some(mmap) = self.mmap {
            config.mmap = mmap;
        }
        if let Some(kernel) = self.kernel {
            config.kernel = kernel;
        }
        if let Some(dimtree) = self.dimtree {
            config.dimtree = dimtree;
        }
        match self.compress {
            // `TPCP_COMPRESS=1` turns the pipeline on with default options
            // but never clobbers explicitly configured knobs.
            Some(true) if config.compress.is_none() => {
                config.compress = Some(CompressOptions::default());
            }
            Some(false) => config.compress = None,
            _ => {}
        }
        config
    }
}

/// How the global sub-factors `A(i)(kᵢ)` are initialised before Phase 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitKind {
    /// Mean of the mode-`i` sub-factors across the slab — aligns `A` with
    /// the Phase-1 component space (default).
    SlabMean,
    /// Seeded random initialisation.
    Random,
}

/// Options for Phase 1 (per-block CP-ALS).
///
/// The worker-thread budget moved to [`TwoPcpConfig::par`], so Phase 1,
/// Phase 2 and the kernels beneath them share one budget.
#[derive(Clone, Debug)]
pub struct Phase1Options {
    /// ALS iterations per block.
    pub max_iters: usize,
    /// ALS convergence tolerance per block.
    pub tol: f64,
    /// Route Phase 1 through the MapReduce substrate (paper Observation #1)
    /// instead of in-process threads. Requires `work_dir`.
    pub use_mapreduce: bool,
}

impl Phase1Options {
    /// Sets the per-block ALS iteration budget.
    #[must_use]
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the per-block ALS convergence tolerance.
    #[must_use]
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Routes Phase 1 through the MapReduce substrate.
    #[must_use]
    pub fn mapreduce(mut self, use_mapreduce: bool) -> Self {
        self.use_mapreduce = use_mapreduce;
        self
    }
}

impl Default for Phase1Options {
    fn default() -> Self {
        Phase1Options {
            max_iters: 25,
            tol: 1e-4,
            use_mapreduce: false,
        }
    }
}

/// Full configuration of a 2PCP run (paper Table III's parameter space).
#[derive(Clone, Debug)]
pub struct TwoPcpConfig {
    /// Decomposition rank `F`.
    pub rank: usize,
    /// Partition counts per mode (`K₁ … K_N`); a single-element vector is
    /// broadcast to every mode.
    pub parts: Vec<usize>,
    /// Phase-2 update schedule (MC / FO / ZO / HO, plus the GO extension).
    pub schedule: ScheduleKind,
    /// Buffer replacement policy (LRU / MRU / FOR).
    pub policy: PolicyKind,
    /// Buffer capacity as a fraction of the total space requirement
    /// (paper: 1/3, 1/2, 2/3). Values ≥ 1 keep everything resident.
    pub buffer_fraction: f64,
    /// Maximum number of virtual iterations in Phase 2 (paper: 100/200).
    pub max_virtual_iters: usize,
    /// Stop when the per-virtual-iteration accuracy improvement drops
    /// below this (paper: 10⁻²).
    pub tol: f64,
    /// Ridge for the `T·S⁻¹` solves.
    pub ridge: f64,
    /// Seed for all randomised pieces (block ALS init etc.).
    pub seed: u64,
    /// Where unit pages live; `None` = in-memory store (testing / small
    /// runs), `Some(dir)` = disk store (the out-of-core configuration).
    pub work_dir: Option<PathBuf>,
    /// Initialisation of the global sub-factors.
    pub init: InitKind,
    /// Phase-1 options.
    pub phase1: Phase1Options,
    /// The shared thread budget: Phase-1 block workers, Phase-2 cache
    /// refreshes and every MTTKRP/matmul kernel underneath draw from this
    /// one [`ParConfig`] (defaults to [`ParConfig::auto`], all available
    /// cores). Parallel execution is deterministic — results are
    /// bit-identical for any budget.
    pub par: ParConfig,
    /// The Phase-2 asynchronous prefetch pipeline: a background worker
    /// walks the deterministic update schedule ahead of the refiner and
    /// stages upcoming units, overlapping disk reads with compute
    /// (defaults to an enabled depth-4 pipeline). Prefetch moves bytes,
    /// never values — fit traces, factors and swap counts are
    /// bit-identical with the pipeline on or off.
    pub prefetch: PrefetchConfig,
    /// Number of unit-store shards the driver routes data-access units
    /// across ([`tpcp_storage::ShardedStore`]): Phase 1 emits units
    /// shard-by-shard and Phase 2 reads route transparently (defaults to a
    /// single unsharded store). Sharding moves bytes, never values —
    /// factors, fits and swap counts are bit-identical at any shard
    /// count.
    pub shards: usize,
    /// The zero-copy page read path: with mmap on, the on-disk unit
    /// stores decode pages directly from memory maps — no scratch-buffer
    /// copy — and hand the buffer pool borrowed page slabs, so a resident
    /// unit materialises with exactly one copy (map → `Mat`). Off by
    /// default. Mmap moves bytes, never values — factors, fits and swap
    /// counts are bit-identical with the flag on or off; irrelevant for
    /// in-memory stores (`work_dir: None`).
    pub mmap: bool,
    /// The compute-kernel backend for every dense product under both
    /// phases (matmul/gram/MTTKRP): the reference scalar loops, the
    /// register-blocked tiled microkernels, or automatic selection
    /// (defaults to [`KernelKind::Auto`], i.e. tiled). Backends are
    /// bit-identical — factors, fits and swap counts never depend on this
    /// knob; it trades speed only.
    pub kernel: KernelKind,
    /// Dimension-tree MTTKRP in the Phase-1 per-block ALS: reuse partial
    /// contractions across the modes of each sweep (~2× fewer flops for
    /// order ≥ 4). Unlike `kernel` and `mmap` this knob *does* change the
    /// floating-point contraction order, so Phase-1 factors are
    /// tolerance- rather than bitwise-equivalent to the per-mode path
    /// (`docs/dimtree.md`); swap counts and the Phase-2 schedule are
    /// unaffected. Off by default.
    pub dimtree: bool,
    /// Compress-then-decompose (`tpcp-compress`): stream per-mode Tucker
    /// bases, run CP on the small core, expand, then polish against the
    /// original tensor. `Some(options)` replaces the two-phase pipeline
    /// with the compression pipeline; `None` (default) leaves the driver
    /// untouched — the default path is bitwise identical to a build
    /// without this knob. Best on low-multilinear-rank tensors; see
    /// `docs/compress.md` for when not to use it.
    pub compress: Option<CompressOptions>,
}

impl TwoPcpConfig {
    /// A configuration with the paper's preferred defaults: Hilbert-order
    /// schedule, forward-looking replacement, 2 partitions per mode. Never
    /// reads the environment; binaries layer [`EnvOverrides`] on top.
    pub fn new(rank: usize) -> Self {
        TwoPcpConfig {
            rank,
            parts: vec![2],
            schedule: ScheduleKind::HilbertOrder,
            policy: PolicyKind::Forward,
            buffer_fraction: 1.0,
            max_virtual_iters: 100,
            tol: 1e-2,
            ridge: 1e-9,
            seed: 0,
            work_dir: None,
            init: InitKind::SlabMean,
            phase1: Phase1Options::default(),
            par: ParConfig::auto(),
            prefetch: PrefetchConfig::default(),
            shards: 1,
            mmap: false,
            kernel: KernelKind::Auto,
            dimtree: false,
            compress: None,
        }
    }

    /// Sets the per-mode partition counts.
    pub fn parts(mut self, parts: Vec<usize>) -> Self {
        self.parts = parts;
        self
    }

    /// Sets the Phase-2 update schedule.
    pub fn schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the buffer replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the buffer size as a fraction of the total space requirement.
    pub fn buffer_fraction(mut self, fraction: f64) -> Self {
        self.buffer_fraction = fraction;
        self
    }

    /// Sets the virtual-iteration budget.
    pub fn max_virtual_iters(mut self, iters: usize) -> Self {
        self.max_virtual_iters = iters;
        self
    }

    /// Sets the Phase-2 stopping tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an on-disk unit store rooted at `dir`.
    pub fn work_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.work_dir = Some(dir.into());
        self
    }

    /// Sets the sub-factor initialisation strategy.
    pub fn init(mut self, init: InitKind) -> Self {
        self.init = init;
        self
    }

    /// Sets the Phase-1 options.
    pub fn phase1(mut self, phase1: Phase1Options) -> Self {
        self.phase1 = phase1;
        self
    }

    /// Sets the shared worker-thread budget (`0` = decide automatically).
    pub fn threads(mut self, threads: usize) -> Self {
        self.par = ParConfig::with_threads(threads);
        self
    }

    /// Sets the shared thread budget from an explicit [`ParConfig`].
    pub fn par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }

    /// Sets the Phase-2 prefetch pipeline configuration.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Sets the prefetch pipeline depth (`0` disables the pipeline).
    pub fn prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch = PrefetchConfig::with_depth(depth);
        self
    }

    /// Sets the unit-store shard count (`1` = unsharded).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Switches the zero-copy (mmap-backed) page read path on or off.
    pub fn mmap(mut self, mmap: bool) -> Self {
        self.mmap = mmap;
        self
    }

    /// Sets the compute-kernel backend (bit-identical across backends;
    /// trades speed only).
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Switches the Phase-1 dimension-tree MTTKRP path on or off
    /// (tolerance-, not bitwise-, equivalent to the per-mode path).
    pub fn dimtree(mut self, dimtree: bool) -> Self {
        self.dimtree = dimtree;
        self
    }

    /// Enables compress-then-decompose with explicit [`CompressOptions`].
    pub fn compress(mut self, options: CompressOptions) -> Self {
        self.compress = Some(options);
        self
    }

    /// Resolves the partition vector for an order-`n` tensor (broadcasting
    /// a singleton) and validates the configuration. Every decomposition
    /// entry point (both phases, the MapReduce leg and the compression
    /// pipeline) runs through here before any work starts.
    ///
    /// # Errors
    /// [`TwoPcpError::Config`] on a zero rank, a buffer fraction that is
    /// not positive (NaN included), a zero shard count, an empty,
    /// mis-sized or zero-containing partition vector, or invalid
    /// [`CompressOptions`].
    pub fn resolved_parts(&self, order: usize) -> Result<Vec<usize>> {
        let invalid = |reason: &str| {
            Err(TwoPcpError::Config {
                reason: reason.into(),
            })
        };
        if self.rank == 0 {
            return invalid("rank must be positive");
        }
        if buffer_fraction_is_invalid(self.buffer_fraction) {
            return invalid("buffer_fraction must be positive");
        }
        if self.shards == 0 {
            return invalid("shard count must be positive");
        }
        if self.parts.is_empty() {
            return invalid("parts must not be empty");
        }
        if let Some(compress) = &self.compress {
            tpcp_cp::validate_compress_options(compress).map_err(|e| TwoPcpError::Config {
                reason: format!("compress: {e}"),
            })?;
        }
        let parts = if self.parts.len() == 1 {
            vec![self.parts[0]; order]
        } else if self.parts.len() == order {
            self.parts.clone()
        } else {
            return Err(TwoPcpError::Config {
                reason: format!(
                    "{} partition counts for an order-{order} tensor",
                    self.parts.len()
                ),
            });
        };
        if parts.contains(&0) {
            return invalid("partition counts must be positive");
        }
        Ok(parts)
    }
}

/// `true` unless `fraction` is a positive number; NaN is incomparable and
/// therefore invalid.
pub(crate) fn buffer_fraction_is_invalid(fraction: f64) -> bool {
    fraction.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Parses a fake environment holding exactly `vars`.
    fn parse(vars: &[(&str, &str)]) -> std::result::Result<EnvOverrides, ConfigError> {
        let env: HashMap<String, String> = vars
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        EnvOverrides::parse(|name| env.get(name).cloned())
    }

    #[test]
    fn builder_chains() {
        let cfg = TwoPcpConfig::new(10)
            .parts(vec![4, 4, 4])
            .schedule(ScheduleKind::ZOrder)
            .policy(PolicyKind::Lru)
            .buffer_fraction(1.0 / 3.0)
            .max_virtual_iters(200)
            .tol(1e-3)
            .seed(9)
            .threads(3);
        assert_eq!(cfg.rank, 10);
        assert_eq!(cfg.parts, vec![4, 4, 4]);
        assert_eq!(cfg.schedule, ScheduleKind::ZOrder);
        assert_eq!(cfg.policy, PolicyKind::Lru);
        assert_eq!(cfg.max_virtual_iters, 200);
        assert_eq!(cfg.par.threads(), 3);
        let cfg = cfg.prefetch_depth(8);
        assert_eq!(cfg.prefetch, PrefetchConfig::with_depth(8));
        let cfg = cfg.prefetch(PrefetchConfig::disabled());
        assert!(!cfg.prefetch.is_active());
        let cfg = cfg.shards(3);
        assert_eq!(cfg.shards, 3);
        let cfg = cfg.mmap(true);
        assert!(cfg.mmap);
        let cfg = cfg.mmap(false);
        assert!(!cfg.mmap);
        assert_eq!(cfg.par(ParConfig::serial()).par, ParConfig::serial());
        let cfg = TwoPcpConfig::new(4)
            .kernel(KernelKind::Reference)
            .dimtree(true);
        assert_eq!(cfg.kernel, KernelKind::Reference);
        assert!(cfg.dimtree);
        assert!(cfg.compress(CompressOptions::default()).compress.is_some());
    }

    #[test]
    fn unset_environment_overrides_nothing() {
        assert_eq!(parse(&[]).unwrap(), EnvOverrides::default());
    }

    #[test]
    fn env_grammar_accepts_every_documented_form() {
        let o = parse(&[
            ("TPCP_THREADS", " 3 "),
            ("TPCP_PREFETCH", "8"),
            ("TPCP_SHARDS", "2"),
            ("TPCP_MMAP", "ON"),
            ("TPCP_KERNEL", "Reference"),
            ("TPCP_DIMTREE", " yes"),
            ("TPCP_COMPRESS", "False"),
            ("TPCP_SERVE_ADDR", "127.0.0.1:9"),
        ])
        .unwrap();
        assert_eq!(o.par, Some(ParConfig::with_threads(3)));
        assert_eq!(o.prefetch, Some(PrefetchConfig::with_depth(8)));
        assert_eq!(o.shards, Some(2));
        assert_eq!(o.mmap, Some(true));
        assert_eq!(o.kernel, Some(KernelKind::Reference));
        assert_eq!(o.dimtree, Some(true));
        assert_eq!(o.compress, Some(false));
        assert_eq!(o.serve_addr.as_deref(), Some("127.0.0.1:9"));
        for v in ["0", "off", "FALSE"] {
            let o = parse(&[("TPCP_PREFETCH", v)]).unwrap();
            assert_eq!(o.prefetch, Some(PrefetchConfig::disabled()), "{v:?}");
        }
        for (v, want) in [
            ("1", true),
            ("on", true),
            ("TRUE", true),
            (" yes ", true),
            ("0", false),
            ("off", false),
            ("False", false),
            ("no", false),
        ] {
            for name in ["TPCP_MMAP", "TPCP_DIMTREE", "TPCP_COMPRESS"] {
                let o = parse(&[(name, v)]).unwrap();
                let got = [o.mmap, o.dimtree, o.compress];
                assert_eq!(
                    got.iter().flatten().collect::<Vec<_>>(),
                    [&want],
                    "{name}={v:?}"
                );
            }
        }
        for v in ["tiled", "auto"] {
            assert_eq!(parse(&[("TPCP_KERNEL", v)]).unwrap().kernel, v.parse().ok());
        }
    }

    #[test]
    fn malformed_env_values_are_config_errors_naming_variable_and_value() {
        let cases = [
            ("TPCP_THREADS", "0"),
            ("TPCP_THREADS", "-2"),
            ("TPCP_THREADS", "four"),
            ("TPCP_PREFETCH", "deep"),
            ("TPCP_PREFETCH", "no"),
            ("TPCP_SHARDS", "0"),
            ("TPCP_SHARDS", "3.5"),
            ("TPCP_MMAP", "maybe"),
            ("TPCP_MMAP", ""),
            ("TPCP_KERNEL", "garbage"),
            ("TPCP_DIMTREE", "2"),
            ("TPCP_COMPRESS", "enable"),
        ];
        for (name, value) in cases {
            let err = parse(&[(name, value)]).unwrap_err();
            assert!(
                err.reason.contains(name) && err.reason.contains(&format!("{value:?}")),
                "error names {name} and {value:?}: {}",
                err.reason
            );
            assert!(matches!(TwoPcpError::from(err), TwoPcpError::Config { .. }));
        }
    }

    #[test]
    fn overrides_apply_only_what_is_set() {
        let o = parse(&[
            ("TPCP_THREADS", "2"),
            ("TPCP_PREFETCH", "off"),
            ("TPCP_SHARDS", "3"),
            ("TPCP_MMAP", "1"),
            ("TPCP_KERNEL", "reference"),
            ("TPCP_DIMTREE", "1"),
        ])
        .unwrap();
        let cfg = o.apply(TwoPcpConfig::new(4));
        assert_eq!(cfg.par.threads(), 2);
        assert!(!cfg.prefetch.is_active());
        assert_eq!(cfg.shards, 3);
        assert!(cfg.mmap);
        assert_eq!(cfg.kernel, KernelKind::Reference);
        assert!(cfg.dimtree);
        assert!(cfg.compress.is_none());
        // Unset overrides leave explicit choices alone.
        let cfg = EnvOverrides::default().apply(
            TwoPcpConfig::new(4)
                .kernel(KernelKind::Tiled)
                .dimtree(true)
                .shards(2),
        );
        assert_eq!(cfg.kernel, KernelKind::Tiled);
        assert!(cfg.dimtree);
        assert_eq!(cfg.shards, 2);
    }

    #[test]
    fn compress_env_override_applies() {
        let overrides = EnvOverrides {
            compress: Some(true),
            ..Default::default()
        };
        let cfg = overrides.apply(TwoPcpConfig::new(4));
        assert_eq!(cfg.compress, Some(CompressOptions::default()));
        // The env toggle never clobbers explicitly configured knobs.
        let explicit = CompressOptions::builder().energy(0.5).build().unwrap();
        let cfg = overrides.apply(TwoPcpConfig::new(4).compress(explicit.clone()));
        assert_eq!(cfg.compress, Some(explicit));
        // `TPCP_COMPRESS=0` forces the pipeline off.
        let off = EnvOverrides {
            compress: Some(false),
            ..Default::default()
        };
        let cfg = off.apply(TwoPcpConfig::new(4).compress(CompressOptions::default()));
        assert!(cfg.compress.is_none());
        // Unset override leaves an explicit choice alone.
        let cfg = EnvOverrides::default().apply(TwoPcpConfig::new(4).compress(Default::default()));
        assert!(cfg.compress.is_some());
    }

    #[test]
    fn parts_broadcast() {
        let cfg = TwoPcpConfig::new(2).parts(vec![3]);
        assert_eq!(cfg.resolved_parts(4).unwrap(), vec![3, 3, 3, 3]);
        let cfg2 = TwoPcpConfig::new(2).parts(vec![2, 3]);
        assert_eq!(cfg2.resolved_parts(2).unwrap(), vec![2, 3]);
    }

    #[test]
    fn validation_errors() {
        let invalid = |cfg: TwoPcpConfig, what: &str| match cfg.resolved_parts(3) {
            Err(TwoPcpError::Config { reason }) => {
                assert!(reason.contains(what), "{what}: {reason}")
            }
            other => panic!("{what}: expected a config error, got {other:?}"),
        };
        invalid(TwoPcpConfig::new(0), "rank");
        invalid(TwoPcpConfig::new(2).parts(vec![2, 2]), "partition counts");
        invalid(
            TwoPcpConfig::new(2).parts(vec![]),
            "parts must not be empty",
        );
        invalid(TwoPcpConfig::new(2).parts(vec![0]), "partition counts");
        invalid(TwoPcpConfig::new(2).shards(0), "shard count");
        for bad in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            invalid(TwoPcpConfig::new(2).buffer_fraction(bad), "buffer_fraction");
        }
        let bad = CompressOptions {
            energy: 0.0,
            ..Default::default()
        };
        invalid(TwoPcpConfig::new(2).compress(bad), "compress");
        assert!(TwoPcpConfig::new(2)
            .compress(CompressOptions::builder().energy(0.99).build().unwrap())
            .resolved_parts(3)
            .is_ok());
    }
}
