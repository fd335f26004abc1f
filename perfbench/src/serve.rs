//! The serving stage: an in-process `tpcp_serve::Server` on loopback,
//! driven in a closed loop by two `tpcp_serve::Client` connections.
//!
//! * `interactive` sends single frames: 50% GET_ENTRY, 20% GET_FIBER,
//!   20% TOP_K k=10, 10% SIMILAR k=10, 80% of them drawn from a 512-key
//!   hot set shared by both connections.
//! * `analytics` sends the same mix as 64-sub BATCH envelopes, and once a
//!   second re-saves the served model (atomic rename) and sends RELOAD.
//!
//! The query stream is the same in every run; the seed varies the model
//! it is answered from. A sample of answers on both connections is
//! compared bitwise against the in-process `Model`; the re-saved model
//! is identical, so the comparison holds across reloads.

use crate::decompose::{model_file, MODEL_NAME};
use crate::hist::{Hist, Windows};
use crate::report::Tally;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcp_cp::CpModel;
use tpcp_serve::{
    decode_entry_payload, decode_fiber_payload, decode_ranked, request, BatchSub, Client,
    ModelRegistry, Opcode, ProtoError, ServeOptions, Server, StatsReport, Status,
};
use twopcp::{Model, ModelMeta};

/// Shape and rank of the served model.
const SERVED_DIMS: [usize; 3] = [4000, 3000, 2000];
const SERVED_RANK: usize = 32;
const QUERY_SEED: u64 = 0x5e7e_5e7e;
const HOT_KEYS: usize = 512;
const HOT_SHARE: f64 = 0.8;
const TOP_K: usize = 10;
const BATCH_SUBS: usize = 64;
const RELOAD_EVERY: Duration = Duration::from_secs(1);
/// One interactive answer in this many is checked against the model.
const VERIFY_ONE_IN: u32 = 16;
/// Subs checked per BATCH envelope.
const VERIFY_PER_BATCH: usize = 2;
/// Width of the windows a stage's figures are taken over.
const WINDOW_S: f64 = 0.5;

/// The served model: a seeded random CP model, saved in `models`.
pub fn build_model(seed: u64, models: &Path) -> Result<Model, String> {
    let (dims, rank) = (SERVED_DIMS, SERVED_RANK);
    let mut rng = StdRng::seed_from_u64(seed);
    let factors = dims
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, rank, &mut rng))
        .collect();
    let cp = CpModel::new(vec![1.0; rank], factors).map_err(|e| e.to_string())?;
    let meta = ModelMeta {
        name: MODEL_NAME.into(),
        rank,
        dims: dims.to_vec(),
        seed,
        fit: 1.0,
        schedule: "HO".into(),
        parts: vec![1],
        compress: None,
    };
    let model = Model::new(meta, cp).map_err(|e| e.to_string())?;
    save(&model, models)?;
    Ok(model)
}

fn save(model: &Model, models: &Path) -> Result<(), String> {
    model
        .save(model_file(models))
        .map_err(|e| format!("saving the served model: {e}"))
}

/// Starts a server over `models` on an ephemeral loopback port.
pub fn start(models: &Path) -> Result<Server, String> {
    let registry = ModelRegistry::open(models)?;
    let mut opts = ServeOptions::new(models);
    opts.addr = "127.0.0.1:0".into();
    Server::start_with_registry(opts, Arc::new(registry)).map_err(|e| e.to_string())
}

/// Stops a server and waits for its threads.
pub fn stop(server: Server) -> Result<(), String> {
    server.stop();
    server.join()
}

#[derive(Clone)]
enum Query {
    Entry(Vec<usize>),
    Fiber(usize, Vec<usize>),
    TopK(usize, Vec<usize>),
    Similar(usize, usize),
}

#[derive(PartialEq)]
enum Answer {
    Value(u64),
    Values(Vec<u64>),
    Ranked(Vec<(usize, u64)>),
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn ranked_bits(v: Vec<(usize, f64)>) -> Vec<(usize, u64)> {
    v.into_iter().map(|(i, x)| (i, x.to_bits())).collect()
}

impl Query {
    fn random(rng: &mut StdRng, dims: &[usize]) -> Query {
        let coords: Vec<usize> = dims.iter().map(|&d| rng.random_range(0..d)).collect();
        let mode = rng.random_range(0..dims.len());
        let fixed: Vec<usize> = coords
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &c)| c)
            .collect();
        let pick = rng.random::<f64>();
        if pick < 0.5 {
            Query::Entry(coords)
        } else if pick < 0.7 {
            Query::Fiber(mode, fixed)
        } else if pick < 0.9 {
            Query::TopK(mode, fixed)
        } else {
            Query::Similar(mode, coords[mode])
        }
    }

    fn sub(&self) -> BatchSub {
        match self {
            Query::Entry(c) => request::entry(MODEL_NAME, c),
            Query::Fiber(m, f) => request::fiber(MODEL_NAME, *m, f),
            Query::TopK(m, f) => request::top_k(MODEL_NAME, *m, f, TOP_K),
            Query::Similar(m, r) => request::similar(MODEL_NAME, *m, *r, TOP_K),
        }
    }

    fn expected(&self, model: &Model) -> Result<Answer, String> {
        let err = |e: twopcp::TwoPcpError| e.to_string();
        Ok(match self {
            Query::Entry(c) => Answer::Value(model.entry(c).map_err(err)?.to_bits()),
            Query::Fiber(m, f) => Answer::Values(bits(&model.fiber(*m, f).map_err(err)?)),
            Query::TopK(m, f) => {
                Answer::Ranked(ranked_bits(model.top_k(*m, f, TOP_K).map_err(err)?))
            }
            Query::Similar(m, r) => {
                Answer::Ranked(ranked_bits(model.similar_rows(*m, *r, TOP_K).map_err(err)?))
            }
        })
    }

    fn decode(&self, payload: &[u8]) -> Result<Answer, ProtoError> {
        Ok(match self {
            Query::Entry(_) => Answer::Value(decode_entry_payload(payload)?.to_bits()),
            Query::Fiber(..) => Answer::Values(bits(&decode_fiber_payload(payload)?)),
            Query::TopK(..) | Query::Similar(..) => {
                Answer::Ranked(ranked_bits(decode_ranked(payload)?))
            }
        })
    }

    /// Compares a served answer bitwise against the in-process model.
    fn verify(&self, payload: &[u8], model: &Model) -> Result<(), String> {
        let got = self
            .decode(payload)
            .map_err(|e| format!("undecodable answer: {e}"))?;
        if got == self.expected(model)? {
            Ok(())
        } else {
            Err("served answer differs from the in-process model".into())
        }
    }
}

/// Draws queries: `HOT_SHARE` of them from the shared hot set.
struct Mix<'a> {
    rng: StdRng,
    dims: &'a [usize],
    hot: &'a [Query],
}

impl Mix<'_> {
    fn next(&mut self) -> Query {
        if self.rng.random::<f64>() < HOT_SHARE {
            self.hot[self.rng.random_range(0..self.hot.len())].clone()
        } else {
            Query::random(&mut self.rng, self.dims)
        }
    }
}

/// What one serving stage measured.
pub struct ServeResult {
    /// Interactive requests: completions and latency in µs.
    interactive: Windows,
    /// BATCH envelopes: completed subs and latency in ms.
    batch: Windows,
    /// Client-observed latency of interactive GET_ENTRY requests, in µs.
    pub entry_us: Hist,
    /// RELOAD round trips, in ms.
    pub reload_ms: Vec<f64>,
    pub busy_refusals: u64,
    pub stats: Option<StatsReport>,
    pub tally: Tally,
}

impl ServeResult {
    /// Completed sub-requests per second, over both connections.
    pub fn qps(&self) -> f64 {
        self.interactive.joint_rate(&self.batch)
    }

    /// Interactive latency quantile `q`, in µs.
    pub fn interactive_quantile_us(&self, q: f64) -> f64 {
        self.interactive.quantile(q)
    }

    /// Median BATCH envelope latency, in ms.
    pub fn batch_p50_ms(&self) -> f64 {
        self.batch.quantile(0.5)
    }

    /// Sample counts: interactive requests and BATCH envelopes.
    pub fn sample_counts(&self) -> (u64, u64) {
        (self.interactive.samples(), self.batch.samples())
    }
}

/// One connection's query source, answer sampling and observations.
struct Conn<'a> {
    mix: Mix<'a>,
    /// Picks the answers checked against the model.
    verify: StdRng,
    windows: Windows,
    entry_us: Hist,
    reload_ms: Vec<f64>,
    busy: u64,
    tally: Tally,
}

impl<'a> Conn<'a> {
    fn new(mut mix: Mix<'a>, duration: Duration) -> Conn<'a> {
        Conn {
            verify: StdRng::seed_from_u64(mix.rng.random()),
            mix,
            windows: Windows::new(duration.as_secs_f64(), WINDOW_S),
            entry_us: Hist::default(),
            reload_ms: Vec::new(),
            busy: 0,
            tally: Tally::default(),
        }
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    // Refusals are failures to report, not something to retry away.
    client.set_busy_retry(0, Duration::ZERO);
    Ok(client)
}

fn is_busy(e: &ProtoError) -> bool {
    matches!(e, ProtoError::Remote { status, .. } if *status == Status::Busy as u16)
}

fn interactive(addr: &str, model: &Model, c: &mut Conn<'_>, start: Instant, deadline: Instant) {
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(e) => return c.tally.check(Err(e)),
    };
    while Instant::now() < deadline {
        let query = c.mix.next();
        let sub = query.sub();
        let op = Opcode::from_u8(sub.opcode).expect("known opcode");
        let t = Instant::now();
        let answer = client.request(op, &sub.payload);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let at = (t - start).as_secs_f64();
        c.tally.attempted += 1;
        match answer {
            Ok(payload) => {
                c.windows.record(at, 1.0, us);
                if matches!(query, Query::Entry(_)) {
                    c.entry_us.record(us);
                }
                if c.verify.random_range(0..VERIFY_ONE_IN) == 0 {
                    if let Err(e) = query.verify(&payload, model) {
                        c.tally.fail(e);
                    }
                }
            }
            Err(e) => {
                if is_busy(&e) {
                    c.busy += 1;
                }
                c.tally.fail(format!("interactive request: {e}"));
                match connect(addr) {
                    Ok(fresh) => client = fresh,
                    Err(e) => return c.tally.fail(e),
                }
            }
        }
    }
}

fn analytics(
    addr: &str,
    model: &Model,
    models: &Path,
    c: &mut Conn<'_>,
    start: Instant,
    deadline: Instant,
) {
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(e) => return c.tally.check(Err(e)),
    };
    // The first reload follows the first envelope, so every stage has one.
    let mut last_reload: Option<Instant> = None;
    while Instant::now() < deadline {
        let queries: Vec<Query> = (0..BATCH_SUBS).map(|_| c.mix.next()).collect();
        let subs: Vec<BatchSub> = queries.iter().map(Query::sub).collect();
        let t = Instant::now();
        let answer = client.batch(&subs);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let at = (t - start).as_secs_f64();
        match answer {
            Ok(resps) => {
                c.tally.attempted += resps.len() as u64;
                let checked: Vec<usize> = (0..VERIFY_PER_BATCH)
                    .map(|_| c.verify.random_range(0..resps.len()))
                    .collect();
                let mut ok = 0;
                for (i, (query, resp)) in queries.iter().zip(&resps).enumerate() {
                    if resp.status != Status::Ok as u16 {
                        c.tally.fail(format!("batch sub status {}", resp.status));
                        continue;
                    }
                    ok += 1;
                    if checked.contains(&i) {
                        if let Err(e) = query.verify(&resp.payload, model) {
                            c.tally.fail(e);
                        }
                    }
                }
                c.windows.record(at, f64::from(ok), ms);
            }
            Err(e) => {
                c.tally.attempted += subs.len() as u64;
                c.tally.failed += subs.len() as u64 - 1;
                if is_busy(&e) {
                    c.busy += 1;
                }
                c.tally.fail(format!("batch envelope: {e}"));
                match connect(addr) {
                    Ok(fresh) => client = fresh,
                    Err(e) => return c.tally.fail(e),
                }
            }
        }
        if last_reload.is_none_or(|t| t.elapsed() >= RELOAD_EVERY) {
            last_reload = Some(Instant::now());
            c.tally.check(save(model, models));
            let t = Instant::now();
            let reloaded = client.reload();
            c.reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
            c.tally.check(match reloaded {
                Ok(rep) if rep.errors.is_empty() => Ok(()),
                Ok(rep) => Err(format!("reload errors: {:?}", rep.errors)),
                Err(e) => Err(format!("reload: {e}")),
            });
        }
    }
}

/// Runs both connections against the server at `addr` for `duration`.
pub fn run_stage(addr: &str, model: &Model, models: &Path, duration: Duration) -> ServeResult {
    let dims = model.dims();
    let mut rng = StdRng::seed_from_u64(QUERY_SEED);
    let hot: Vec<Query> = (0..HOT_KEYS)
        .map(|_| Query::random(&mut rng, &dims))
        .collect();
    let mix = |rng: &mut StdRng| Mix {
        rng: StdRng::seed_from_u64(rng.random()),
        dims: &dims,
        hot: &hot,
    };
    let mut inter = Conn::new(mix(&mut rng), duration);
    let mut anal = Conn::new(mix(&mut rng), duration);
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|s| {
        let i = s.spawn(|| interactive(addr, model, &mut inter, start, deadline));
        analytics(addr, model, models, &mut anal, start, deadline);
        i.join().expect("interactive client panicked");
    });
    let mut tally = Tally::default();
    let stats = connect(addr).and_then(|mut c| c.stats().map_err(|e| format!("STATS: {e}")));
    let stats = match stats {
        Ok(s) => Some(s),
        Err(e) => {
            tally.check(Err(e));
            None
        }
    };
    tally.merge(inter.tally);
    tally.merge(anal.tally);
    ServeResult {
        interactive: inter.windows,
        batch: anal.windows,
        entry_us: inter.entry_us,
        reload_ms: anal.reload_ms,
        busy_refusals: inter.busy + anal.busy,
        stats,
        tally,
    }
}

/// Server-side latency quantile of `op` in µs, interpolated inside the
/// log₂ histogram bucket (bucket `b > 0` holds `[2^(b-1), 2^b)` µs).
pub fn server_quantile_us(stats: &StatsReport, op: Opcode, q: f64) -> f64 {
    let Some(stat) = stats.op(op) else {
        return f64::NAN;
    };
    let buckets = &stat.snapshot.buckets;
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = (total as f64 * q).max(1.0);
    let mut seen = 0.0;
    for (b, &n) in buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && seen + n >= rank {
            let (lo, hi) = if b == 0 {
                (0.0, 1.0)
            } else {
                ((1u64 << (b - 1)) as f64, (1u64 << b) as f64)
            };
            return lo + (hi - lo) * (rank - seen) / n;
        }
        seen += n;
    }
    f64::NAN
}
