//! The map → shuffle → reduce execution engine.

use crate::counters::CounterField;
use crate::record::decode_all;
use crate::{JobCounters, MrError, Record, Result};
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tpcp_par::{par_map_owned, ParConfig};

/// User logic for one MapReduce job.
///
/// `map` consumes one input record and emits intermediate key/value pairs;
/// `reduce` consumes one key with all its values (order unspecified, as on
/// a real cluster) and emits output records. Both may run concurrently on
/// several threads, hence `Sync`.
pub trait MapReduceJob: Sync {
    /// One input record.
    type Input: Send;
    /// Intermediate key (must sort and encode for the shuffle).
    type Key: Record + Ord + Send;
    /// Intermediate value.
    type Value: Record + Send;
    /// One output record.
    type Output: Send;

    /// The map function.
    fn map(&self, input: Self::Input, emit: &mut dyn FnMut(Self::Key, Self::Value));

    /// The reduce function.
    fn reduce(&self, key: Self::Key, values: Vec<Self::Value>, emit: &mut dyn FnMut(Self::Output));
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct MrConfig {
    /// Number of mapper input chunks.
    pub num_mappers: usize,
    /// Number of reducer buckets. This is *structural* (it fixes the hash
    /// partitioning and output order); how many run concurrently is capped
    /// by `par`.
    pub num_reducers: usize,
    /// Concurrency cap for mapper and reducer threads — the shared
    /// [`tpcp_par`] budget, so a one-thread budget really is serial
    /// even though the job still has `num_reducers` buckets.
    pub par: ParConfig,
    /// Directory for shuffle spill files.
    pub work_dir: PathBuf,
    /// Mapper-side in-memory buffer per bucket before spilling to disk.
    pub spill_threshold_bytes: usize,
    /// Per-reducer input cap in bytes; exceeded ⇒
    /// [`MrError::ReducerOutOfMemory`]. Models the fixed heap of a real
    /// cluster worker (Table I's HaTen2 `FAILS` row).
    pub reducer_memory_bytes: Option<u64>,
}

impl MrConfig {
    /// A config with sensible defaults rooted at `work_dir`: the mapper
    /// count follows the hardware [`tpcp_par`] budget.
    pub fn new(work_dir: impl Into<PathBuf>) -> Self {
        let par = ParConfig::auto();
        MrConfig {
            num_mappers: par.threads(),
            num_reducers: 4,
            par,
            work_dir: work_dir.into(),
            spill_threshold_bytes: 4 << 20,
            reducer_memory_bytes: None,
        }
    }
}

/// Stable key → bucket assignment via FNV-1a over the encoded key.
fn bucket_of(key_bytes: &[u8], buckets: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key_bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % buckets as u64) as usize
}

/// Runs a job over `inputs`, returning reducer outputs concatenated in
/// bucket order (deterministic given deterministic reduce logic).
///
/// # Errors
/// Spill-file I/O failures, decode failures and reducer memory-cap
/// violations.
pub fn run_job<J: MapReduceJob>(
    job: &J,
    inputs: Vec<J::Input>,
    config: &MrConfig,
    counters: &JobCounters,
) -> Result<Vec<J::Output>>
where
    J::Output: Send,
{
    fs::create_dir_all(&config.work_dir)?;
    let num_reducers = config.num_reducers.max(1);
    let num_mappers = config.num_mappers.max(1).min(inputs.len().max(1));

    // ---- Map phase -------------------------------------------------------
    // Chunk the inputs; each mapper writes encoded (key, value) pairs into
    // per-bucket buffers, spilling to disk past the threshold.
    let chunk_size = inputs.len().div_ceil(num_mappers);
    let mut chunks: Vec<Vec<J::Input>> = Vec::with_capacity(num_mappers);
    {
        let mut it = inputs.into_iter();
        loop {
            let chunk: Vec<J::Input> = it.by_ref().take(chunk_size.max(1)).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
    }

    let spill_seq = AtomicUsize::new(0);
    // (bucket -> leftover in-memory bytes) per mapper, plus spill paths.
    type MapSide = (Vec<Vec<u8>>, Vec<(usize, PathBuf)>);
    let map_results: Vec<MapSide> = par_map_owned(
        &ParConfig::with_threads(num_mappers.min(config.par.threads())),
        chunks,
        |_, chunk| -> Result<MapSide> {
            let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); num_reducers];
            let mut spills: Vec<(usize, PathBuf)> = Vec::new();
            let mut key_buf = Vec::new();
            let mut emit_err: Option<MrError> = None;
            for input in chunk {
                counters.add(CounterField::MapInput, 1);
                let mut emit = |k: J::Key, v: J::Value| {
                    if emit_err.is_some() {
                        return;
                    }
                    key_buf.clear();
                    k.encode(&mut key_buf);
                    let bucket = bucket_of(&key_buf, num_reducers);
                    let buf = &mut buffers[bucket];
                    let before = buf.len();
                    buf.extend_from_slice(&key_buf);
                    v.encode(buf);
                    counters.add(CounterField::MapOutput, 1);
                    counters.add(CounterField::ShuffleBytes, (buf.len() - before) as u64);
                    if buf.len() >= config.spill_threshold_bytes {
                        let seq = spill_seq.fetch_add(1, Ordering::Relaxed);
                        let path = config.work_dir.join(format!("spill_{seq}.bin"));
                        match fs::File::create(&path)
                            .and_then(|mut f| f.write_all(buf).and_then(|_| f.flush()))
                        {
                            Ok(()) => {
                                counters.add(CounterField::SpillBytes, buf.len() as u64);
                                counters.add(CounterField::SpillFiles, 1);
                                buf.clear();
                                spills.push((bucket, path));
                            }
                            Err(e) => emit_err = Some(e.into()),
                        }
                    }
                };
                job.map(input, &mut emit);
                if let Some(e) = emit_err {
                    return Err(e);
                }
            }
            Ok((buffers, spills))
        },
    )
    .map_err(MrError::from)?;

    // Gather per-bucket byte streams.
    let mut bucket_mem: Vec<Vec<Vec<u8>>> = (0..num_reducers).map(|_| Vec::new()).collect();
    let mut bucket_spills: Vec<Vec<PathBuf>> = (0..num_reducers).map(|_| Vec::new()).collect();
    for (buffers, spills) in map_results {
        for (bucket, buf) in buffers.into_iter().enumerate() {
            if !buf.is_empty() {
                bucket_mem[bucket].push(buf);
            }
        }
        for (bucket, path) in spills {
            bucket_spills[bucket].push(path);
        }
    }

    // ---- Shuffle + reduce -----------------------------------------------
    let reduce_inputs: Vec<(Vec<Vec<u8>>, Vec<PathBuf>)> =
        bucket_mem.into_iter().zip(bucket_spills).collect();

    let outputs: Vec<Vec<J::Output>> = par_map_owned(
        &ParConfig::with_threads(num_reducers.min(config.par.threads())),
        reduce_inputs,
        |reducer, (mem, spills)| -> Result<Vec<J::Output>> {
            // Assemble the bucket's byte stream, enforcing the cap.
            let mut total_bytes: u64 = mem.iter().map(|b| b.len() as u64).sum();
            for path in &spills {
                total_bytes += fs::metadata(path)?.len();
            }
            if let Some(cap) = config.reducer_memory_bytes {
                if total_bytes > cap {
                    return Err(MrError::ReducerOutOfMemory {
                        reducer,
                        bytes: total_bytes,
                        cap,
                    });
                }
            }
            let mut stream = Vec::with_capacity(total_bytes as usize);
            for path in &spills {
                stream.extend_from_slice(&fs::read(path)?);
                let _ = fs::remove_file(path);
            }
            for buf in mem {
                stream.extend_from_slice(&buf);
            }
            let mut pairs: Vec<(J::Key, J::Value)> =
                decode_all(&stream).ok_or_else(|| MrError::Decode {
                    context: format!("reducer {reducer} input stream"),
                })?;
            drop(stream);
            pairs.sort_by(|a, b| a.0.cmp(&b.0));

            let mut out = Vec::new();
            let mut emit_count: u64 = 0;
            let mut iter = pairs.into_iter().peekable();
            while let Some((key, first)) = iter.next() {
                let mut values = vec![first];
                while iter.peek().is_some_and(|(k, _)| *k == key) {
                    values.push(iter.next().expect("peeked").1);
                }
                counters.add(CounterField::ReduceGroups, 1);
                job.reduce(key, values, &mut |o| {
                    out.push(o);
                    emit_count += 1;
                });
            }
            counters.add(CounterField::ReduceOutput, emit_count);
            Ok(out)
        },
    )
    .map_err(MrError::from)?;

    let mut all = Vec::new();
    for out in outputs {
        all.extend(out);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tpcp_mr_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Classic word-count over u32 "words".
    struct Count;
    impl MapReduceJob for Count {
        type Input = u32;
        type Key = u32;
        type Value = u64;
        type Output = (u32, u64);
        fn map(&self, input: u32, emit: &mut dyn FnMut(u32, u64)) {
            emit(input, 1);
        }
        fn reduce(&self, key: u32, values: Vec<u64>, emit: &mut dyn FnMut((u32, u64))) {
            emit((key, values.iter().sum()));
        }
    }

    #[test]
    fn word_count_end_to_end() {
        let dir = tmpdir("count");
        let inputs: Vec<u32> = (0..1000).map(|i| i % 7).collect();
        let counters = JobCounters::new();
        let mut cfg = MrConfig::new(&dir);
        cfg.num_mappers = 3;
        cfg.num_reducers = 2;
        let mut out = run_job(&Count, inputs, &cfg, &counters).unwrap();
        out.sort_unstable();
        assert_eq!(out.len(), 7);
        for (word, count) in out {
            let expect = (0..1000u32).filter(|i| i % 7 == word).count() as u64;
            assert_eq!(count, expect, "word {word}");
        }
        let s = counters.snapshot();
        assert_eq!(s.map_input_records, 1000);
        assert_eq!(s.map_output_records, 1000);
        assert_eq!(s.reduce_groups, 7);
        assert_eq!(s.reduce_output_records, 7);
        assert!(s.shuffle_bytes >= 1000 * 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilling_to_disk_is_transparent() {
        let dir = tmpdir("spill");
        let inputs: Vec<u32> = (0..500).map(|i| i % 5).collect();
        let counters = JobCounters::new();
        let mut cfg = MrConfig::new(&dir);
        cfg.num_mappers = 2;
        cfg.num_reducers = 2;
        cfg.spill_threshold_bytes = 64; // force many spills
        let mut out = run_job(&Count, inputs, &cfg, &counters).unwrap();
        out.sort_unstable();
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], (0, 100));
        let s = counters.snapshot();
        assert!(s.spill_files > 0, "expected spills at 64-byte threshold");
        assert!(s.spill_bytes > 0);
        // Spill files are cleaned up after the reduce.
        let leftover = fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftover, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reducer_memory_cap_fails_the_job() {
        let dir = tmpdir("oom");
        let inputs: Vec<u32> = vec![42; 10_000]; // all to one reducer
        let counters = JobCounters::new();
        let mut cfg = MrConfig::new(&dir);
        cfg.num_reducers = 2;
        cfg.reducer_memory_bytes = Some(1024);
        let err = run_job(&Count, inputs, &cfg, &counters).unwrap_err();
        assert!(matches!(err, MrError::ReducerOutOfMemory { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A job whose mapper panics on one input record.
    struct PanicOn(u32);
    impl MapReduceJob for PanicOn {
        type Input = u32;
        type Key = u32;
        type Value = u64;
        type Output = (u32, u64);
        fn map(&self, input: u32, emit: &mut dyn FnMut(u32, u64)) {
            assert_ne!(input, self.0, "poisoned record {input}");
            emit(input, 1);
        }
        fn reduce(&self, key: u32, values: Vec<u64>, emit: &mut dyn FnMut((u32, u64))) {
            emit((key, values.iter().sum()));
        }
    }

    #[test]
    fn panicking_mapper_fails_the_job_instead_of_unwinding() {
        let dir = tmpdir("panic");
        let counters = JobCounters::new();
        let mut cfg = MrConfig::new(&dir);
        cfg.num_mappers = 3;
        let inputs: Vec<u32> = (0..100).collect();
        let err = run_job(&PanicOn(57), inputs, &cfg, &counters).unwrap_err();
        match err {
            MrError::WorkerPanic { message } => {
                assert!(message.contains("poisoned record 57"), "message: {message}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_input_is_fine() {
        let dir = tmpdir("empty");
        let counters = JobCounters::new();
        let cfg = MrConfig::new(&dir);
        let out = run_job(&Count, vec![], &cfg, &counters).unwrap();
        assert!(out.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A job that fans out multiple emissions per input.
    struct FanOut;
    impl MapReduceJob for FanOut {
        type Input = u32;
        type Key = (u32, u32);
        type Value = f64;
        type Output = ((u32, u32), f64);
        fn map(&self, input: u32, emit: &mut dyn FnMut((u32, u32), f64)) {
            for j in 0..3 {
                emit((input, j), f64::from(input + j));
            }
        }
        fn reduce(
            &self,
            key: (u32, u32),
            values: Vec<f64>,
            emit: &mut dyn FnMut(((u32, u32), f64)),
        ) {
            emit((key, values.iter().sum()));
        }
    }

    #[test]
    fn composite_keys_work() {
        let dir = tmpdir("composite");
        let counters = JobCounters::new();
        let mut cfg = MrConfig::new(&dir);
        cfg.num_reducers = 3;
        let mut out = run_job(&FanOut, vec![1, 2], &cfg, &counters).unwrap();
        out.sort_by_key(|a| a.0);
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], ((1, 0), 1.0));
        assert_eq!(out[5], ((2, 2), 4.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bucket_of_is_stable_and_spread() {
        let mut buf = Vec::new();
        7u32.encode(&mut buf);
        let b1 = bucket_of(&buf, 8);
        let b2 = bucket_of(&buf, 8);
        assert_eq!(b1, b2);
        // Different keys should hit more than one bucket.
        let mut seen = std::collections::HashSet::new();
        for k in 0..64u32 {
            let mut kb = Vec::new();
            k.encode(&mut kb);
            seen.insert(bucket_of(&kb, 8));
        }
        assert!(seen.len() > 4);
    }
}
