//! The benchmark's workloads: what each one decomposes, what it serves,
//! and the correctness floor its decomposition must reach.

use std::path::Path;
use tpcp_partition::{FileTensorSource, SourceResult};
use tpcp_schedule::ScheduleKind;
use tpcp_storage::PolicyKind;
use tpcp_tensor::DenseTensor;
use twopcp::TwoPcpConfig;

/// How the input tensor is generated from the run seed.
#[derive(Clone, Copy)]
pub enum Input {
    /// `tpcp_datasets::low_rank_dense`: a rank-`rank` CP tensor plus
    /// uniform noise.
    LowRank { rank: usize, noise: f64 },
    /// `tpcp_datasets::dense_uniform`: the paper's Table II data.
    Uniform { density: f64 },
}

/// How the input tensor is laid out on disk.
#[derive(Clone, Copy)]
pub enum Layout {
    /// Header with magic and dimensions (`FileTensorSource::open`).
    SelfDescribing,
    /// Bare row-major cells (`FileTensorSource::open_raw`).
    Headerless,
}

/// The decomposition a workload runs: file → `TwoPcp` → saved `Model`.
pub struct Decomp {
    pub dims: &'static [usize],
    pub input: Input,
    pub layout: Layout,
    pub rank: usize,
    pub parts: &'static [usize],
    /// `None` keeps the library default.
    pub schedule: Option<ScheduleKind>,
    pub policy: PolicyKind,
    pub buffer_fraction: f64,
    pub tol: f64,
    /// `None` keeps the library default (run to convergence).
    pub max_virtual_iters: Option<usize>,
    /// Lowest exact fit the saved model may have.
    pub fit_floor: f64,
    /// Distinct inputs generated per run; the decompositions cycle
    /// through them, so a run's median is not one input's convergence
    /// luck.
    pub inputs: usize,
}

pub struct Workload {
    pub name: &'static str,
    pub decomp: Decomp,
    /// Share of the run's measured seconds given to the serving stage;
    /// the decomposition stage gets the rest.
    pub serve_share: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dense3-coarse",
        decomp: Decomp {
            dims: &[192, 192, 192],
            input: Input::LowRank {
                rank: 16,
                noise: 0.1,
            },
            layout: Layout::SelfDescribing,
            rank: 16,
            parts: &[2, 2, 2],
            schedule: Some(ScheduleKind::ZOrder),
            policy: PolicyKind::Forward,
            buffer_fraction: 0.5,
            tol: 1e-2,
            max_virtual_iters: None,
            fit_floor: 0.9,
            inputs: 2,
        },
        serve_share: 0.15,
    },
    Workload {
        name: "dense3-fine",
        decomp: Decomp {
            dims: &[128, 128, 128],
            input: Input::Uniform { density: 0.49 },
            layout: Layout::SelfDescribing,
            rank: 32,
            parts: &[4, 4, 4],
            schedule: None,
            policy: PolicyKind::Lru,
            buffer_fraction: 0.25,
            tol: 0.0,
            max_virtual_iters: Some(60),
            fit_floor: 0.15,
            inputs: 1,
        },
        serve_share: 0.15,
    },
    Workload {
        name: "dense4-stream",
        decomp: Decomp {
            dims: &[40, 40, 40, 40],
            input: Input::LowRank {
                rank: 8,
                noise: 0.1,
            },
            layout: Layout::Headerless,
            rank: 8,
            parts: &[2, 2, 2, 2],
            schedule: None,
            policy: PolicyKind::Forward,
            buffer_fraction: 0.5,
            tol: 1e-2,
            max_virtual_iters: None,
            fit_floor: 0.85,
            inputs: 1,
        },
        serve_share: 0.15,
    },
    Workload {
        name: "serve-mixed",
        // A small Table II-shaped decomposition: every workload reports
        // every end-to-end metric, and here the pipeline's fixed costs
        // (thread fan-out, store and file set-up) dominate it.
        decomp: Decomp {
            dims: &[64, 64, 64],
            input: Input::LowRank {
                rank: 8,
                noise: 0.1,
            },
            layout: Layout::SelfDescribing,
            rank: 8,
            parts: &[2, 2, 2],
            schedule: Some(ScheduleKind::ZOrder),
            policy: PolicyKind::Forward,
            buffer_fraction: 0.5,
            tol: 1e-2,
            max_virtual_iters: None,
            fit_floor: 0.9,
            inputs: 4,
        },
        serve_share: 0.75,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Decomp {
    /// The decomposition config: library defaults (thread budget, kernel,
    /// prefetch, mmap, shards, dimtree, compression, seed) plus the
    /// workload's own shape of the run.
    pub fn config(&self, work_dir: &Path) -> TwoPcpConfig {
        let mut cfg = TwoPcpConfig::new(self.rank)
            .parts(self.parts.to_vec())
            .policy(self.policy)
            .buffer_fraction(self.buffer_fraction)
            .tol(self.tol)
            .work_dir(work_dir);
        if let Some(schedule) = self.schedule {
            cfg = cfg.schedule(schedule);
        }
        if let Some(iters) = self.max_virtual_iters {
            cfg = cfg.max_virtual_iters(iters);
        }
        cfg
    }

    /// Input `i` of the run with seed `seed`.
    pub fn generate(&self, seed: u64, i: usize) -> DenseTensor {
        let seed = seed ^ ((i as u64) << 32);
        match self.input {
            Input::LowRank { rank, noise } => {
                tpcp_datasets::low_rank_dense(self.dims, rank, noise, seed)
            }
            Input::Uniform { density } => tpcp_datasets::dense_uniform(self.dims, density, seed),
        }
    }

    /// Writes `x` to `path` in this workload's layout.
    pub fn write(&self, path: &Path, x: &DenseTensor) -> SourceResult<()> {
        match self.layout {
            Layout::SelfDescribing => FileTensorSource::write_dense(path, x),
            Layout::Headerless => {
                let mut bytes = Vec::with_capacity(x.len() * 8);
                for v in x.as_slice() {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                std::fs::write(path, bytes)?;
                Ok(())
            }
        }
    }

    /// Opens the input file written by [`Decomp::write`].
    pub fn open(&self, path: &Path) -> SourceResult<FileTensorSource> {
        match self.layout {
            Layout::SelfDescribing => FileTensorSource::open(path),
            Layout::Headerless => FileTensorSource::open_raw(path, self.dims),
        }
    }
}
