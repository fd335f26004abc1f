//! The decomposition stage: input file → `TwoPcp::decompose_source` →
//! `Model::from_outcome(..).save`, timed and verified.

use crate::report::{median, Tally};
use crate::workloads::Decomp;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use twopcp::{Model, TwoPcp, TwoPcpConfig, TwoPcpOutcome};

/// Name models are saved (and served) under.
pub const MODEL_NAME: &str = "model";

/// The file of the model named [`MODEL_NAME`] in `dir`.
pub fn model_file(dir: &Path) -> PathBuf {
    dir.join(format!("{MODEL_NAME}.{}", twopcp::MODEL_EXT))
}

/// Where one workload keeps its inputs, unit store and models.
pub struct Paths {
    work: PathBuf,
    pub store: PathBuf,
    /// The decomposition stage's saved model.
    saved: PathBuf,
    /// The serving stage's model directory.
    pub served: PathBuf,
}

impl Paths {
    pub fn new(work: &Path) -> std::io::Result<Paths> {
        let paths = Paths {
            work: work.to_path_buf(),
            store: work.join("store"),
            saved: work.join("saved"),
            served: work.join("served"),
        };
        std::fs::create_dir_all(&paths.saved)?;
        std::fs::create_dir_all(&paths.served)?;
        Ok(paths)
    }

    /// The file holding input `i`.
    pub fn input(&self, i: usize) -> PathBuf {
        self.work.join(format!("input{i}.tensor"))
    }

    /// The model file the decomposition stage saves.
    pub fn model_file(&self) -> PathBuf {
        model_file(&self.saved)
    }

    /// Empties the unit store so every decomposition starts from the
    /// same on-disk state.
    pub fn fresh_store(&self) -> std::io::Result<()> {
        if self.store.exists() {
            std::fs::remove_dir_all(&self.store)?;
        }
        std::fs::create_dir_all(&self.store)
    }
}

/// Generates input `i` from `seed` and writes it to disk.
pub fn set_up(decomp: &Decomp, paths: &Paths, seed: u64, i: usize) -> Result<(), String> {
    let x = decomp.generate(seed, i);
    decomp
        .write(&paths.input(i), &x)
        .map_err(|e| format!("writing the input: {e}"))
}

/// One untraced run of the user path on input `i`. The timer starts
/// when the source is opened and stops when the model is saved.
pub fn run_once(
    decomp: &Decomp,
    cfg: &TwoPcpConfig,
    paths: &Paths,
    i: usize,
) -> Result<(TwoPcpOutcome, Model, Duration), String> {
    paths
        .fresh_store()
        .map_err(|e| format!("clearing the store: {e}"))?;
    let t = Instant::now();
    let mut src = decomp
        .open(&paths.input(i))
        .map_err(|e| format!("opening the input: {e}"))?;
    let outcome = TwoPcp::new(cfg.clone())
        .decompose_source(&mut src)
        .map_err(|e| format!("decomposition failed: {e}"))?;
    let model = Model::from_outcome(MODEL_NAME, &outcome, cfg);
    model
        .save(paths.model_file())
        .map_err(|e| format!("saving the model: {e}"))?;
    Ok((outcome, model, t.elapsed()))
}

/// Checks a saved model: its fit reaches the floor, repeats bitwise
/// across runs of the same input, and `Model::load_shared` of the file
/// reads back the model that was saved. Each check is one operation.
pub fn verify(
    decomp: &Decomp,
    model: &Model,
    fit: f64,
    first_fit: &mut Option<f64>,
    model_file: &Path,
    tally: &mut Tally,
) {
    tally.check(if fit >= decomp.fit_floor {
        Ok(())
    } else {
        Err(format!("fit {fit} below the floor {}", decomp.fit_floor))
    });
    let reference = *first_fit.get_or_insert(fit);
    tally.check(if fit.to_bits() == reference.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "fit {fit} differs from the first run's {reference}"
        ))
    });
    tally.check(match Model::load_shared(model_file) {
        Ok(loaded) if loaded == *model => Ok(()),
        Ok(_) => Err("the loaded model differs from the saved one".into()),
        Err(e) => Err(format!("loading the saved model: {e}")),
    });
}

/// End-to-end figures of the decomposition stage.
pub struct StageResult {
    pub decompose_s: Vec<f64>,
    /// Median over the inputs of each input's fit.
    pub fit: f64,
}

/// Decomposes the inputs in turn until `budget` is spent, each at least
/// once and the stage at least twice.
pub fn run_stage(
    decomp: &Decomp,
    cfg: &TwoPcpConfig,
    paths: &Paths,
    budget: Duration,
    tally: &mut Tally,
) -> StageResult {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut first_fits = vec![None; decomp.inputs];
    loop {
        let i = samples.len() % decomp.inputs;
        tally.attempted += 1;
        match run_once(decomp, cfg, paths, i) {
            Ok((outcome, model, took)) => {
                samples.push(took.as_secs_f64());
                verify(
                    decomp,
                    &model,
                    outcome.fit,
                    &mut first_fits[i],
                    &paths.model_file(),
                    tally,
                );
            }
            Err(reason) => {
                tally.fail(reason);
                break;
            }
        }
        let last = Duration::from_secs_f64(*samples.last().unwrap_or(&0.0));
        let enough = samples.len() >= decomp.inputs.max(2);
        if enough && start.elapsed() + last / 2 >= budget {
            break;
        }
    }
    let fits: Vec<f64> = first_fits.into_iter().flatten().collect();
    StageResult {
        decompose_s: samples,
        fit: median(&fits),
    }
}

impl StageResult {
    pub fn median_s(&self) -> f64 {
        median(&self.decompose_s)
    }
}
