//! The model registry: named, versioned, hot-swappable read-only models.
//!
//! Models live on disk as `*.2pcpm` containers in one directory; the
//! registry maps file stem → loaded [`Model`]. Readers take an immutable
//! snapshot (an `Arc` clone of the whole map — the `ArcSwap` idiom built
//! from `RwLock<Arc<…>>`, cheap because the lock is held only for the
//! clone) and sessions *pin* the entries they touch, so a concurrent
//! [`ModelRegistry::reload`] never changes answers mid-session: old
//! sessions finish on the version they pinned, new sessions resolve the
//! fresh map.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use twopcp::{Model, MODEL_EXT};

/// One loaded model plus its registry version (the generation of the
/// reload that brought it in — bumps on every swap).
#[derive(Debug)]
pub struct ModelEntry {
    /// Registry key (the container's file stem).
    pub name: String,
    /// Reload generation this entry was loaded at.
    pub version: u64,
    /// The model itself.
    pub model: Model,
}

/// Immutable view of the registry at one instant.
pub type Snapshot = Arc<HashMap<String, Arc<ModelEntry>>>;

/// Directory-backed registry of served models.
pub struct ModelRegistry {
    dir: PathBuf,
    /// Whether loads (startup and every reload) map the containers
    /// ([`Model::load_with`]).
    mmap: bool,
    inner: RwLock<Snapshot>,
    generation: AtomicU64,
}

impl ModelRegistry {
    /// Opens a registry over `dir`, loading every `*.2pcpm` inside as
    /// owned models.
    ///
    /// # Errors
    /// I/O failure listing the directory, or a container that fails to
    /// parse (a corrupt model at startup is fatal; during [`reload`] it
    /// is skipped so a bad upload cannot take down serving).
    ///
    /// [`reload`]: ModelRegistry::reload
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, String> {
        Self::open_with(dir, false)
    }

    /// [`ModelRegistry::open`] with the model transport explicit: with
    /// `mmap` on, every load (this one and each reload) serves the
    /// factors zero-copy from one shared map per container.
    ///
    /// # Errors
    /// As [`ModelRegistry::open`].
    pub fn open_with(dir: impl AsRef<Path>, mmap: bool) -> Result<Self, String> {
        let reg = ModelRegistry {
            dir: dir.as_ref().to_path_buf(),
            mmap,
            inner: RwLock::new(Arc::new(HashMap::new())),
            generation: AtomicU64::new(0),
        };
        let (count, errors) = reg.reload();
        if count == 0 && !errors.is_empty() {
            return Err(format!("no model loaded: {}", errors.join("; ")));
        }
        Ok(reg)
    }

    /// The directory being served.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current reload generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Takes an immutable snapshot of the current model map.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.read().expect("registry lock poisoned").clone()
    }

    /// Rescans the directory and atomically swaps the map in. Returns the
    /// number of models now served plus per-file load errors (skipped
    /// files — serving continues on the rest).
    pub fn reload(&self) -> (usize, Vec<String>) {
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let mut map = HashMap::new();
        let mut errors = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) => {
                errors.push(format!("{}: {e}", self.dir.display()));
                return (self.snapshot().len(), errors);
            }
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(MODEL_EXT) {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            match Model::load_with(&path, self.mmap) {
                Ok(model) => {
                    map.insert(
                        name.to_string(),
                        Arc::new(ModelEntry {
                            name: name.to_string(),
                            version: generation,
                            model,
                        }),
                    );
                }
                Err(e) => errors.push(format!("{}: {e}", path.display())),
            }
        }
        let count = map.len();
        *self.inner.write().expect("registry lock poisoned") = Arc::new(map);
        (count, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_cp::CpModel;
    use tpcp_linalg::Mat;
    use twopcp::ModelMeta;

    fn tiny(name: &str, seed: u64) -> Model {
        let cp = CpModel::new(
            vec![seed as f64 + 1.0],
            vec![Mat::from_vec(2, 1, vec![1.0, 2.0])],
        )
        .unwrap();
        Model::new(
            ModelMeta {
                name: name.into(),
                rank: 1,
                dims: vec![2],
                seed,
                fit: 1.0,
                schedule: "HO".into(),
                parts: vec![1],
                compress: None,
            },
            cp,
        )
        .unwrap()
    }

    #[test]
    fn reload_swaps_versions_but_pins_survive() {
        let dir = std::env::temp_dir().join(format!("tpcp_registry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        tiny("a", 1).save(dir.join("a.2pcpm")).unwrap();

        let reg = ModelRegistry::open(&dir).unwrap();
        let pinned = reg.snapshot().get("a").unwrap().clone();
        assert_eq!(pinned.model.meta.seed, 1);

        tiny("a", 2).save(dir.join("a.2pcpm")).unwrap();
        let (count, errors) = reg.reload();
        assert_eq!((count, errors.len()), (1, 0));

        // New snapshot sees the new version; the pin still answers as v1.
        let fresh = reg.snapshot().get("a").unwrap().clone();
        assert_eq!(fresh.model.meta.seed, 2);
        assert!(fresh.version > pinned.version);
        assert_eq!(pinned.model.meta.seed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_skipped_on_reload() {
        let dir = std::env::temp_dir().join(format!("tpcp_registry_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        tiny("good", 1).save(dir.join("good.2pcpm")).unwrap();
        std::fs::write(dir.join("bad.2pcpm"), b"not a container").unwrap();

        let reg = ModelRegistry::open(&dir).unwrap();
        let (count, errors) = reg.reload();
        assert_eq!(count, 1);
        assert_eq!(errors.len(), 1);
        assert!(reg.snapshot().contains_key("good"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
