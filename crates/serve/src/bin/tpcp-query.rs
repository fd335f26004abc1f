//! `tpcp-query` — client-side companion to `tpcp-serve`.
//!
//! ```text
//! tpcp-query --prepare DIR            # decompose a demo tensor, save DIR/demo.2pcpm
//! tpcp-query --addr A --smoke [--verify FILE]
//!                                     # one query of each opcode; with --verify,
//!                                     # check answers bitwise against a local load
//! tpcp-query --addr A --batch FILE    # send FILE's requests (one per line, or
//!                                     # "-" for stdin) as one BATCH envelope and
//!                                     # verify each answer bitwise against the
//!                                     # serial single-frame path
//! tpcp-query --addr A CMD [ARGS…]    # single commands:
//!     ping | list | stats | reload | shutdown
//!     meta NAME | entry NAME I J …  | fiber NAME MODE I … | topk NAME MODE K I …
//!     similar NAME MODE ROW K
//! ```
//!
//! `TPCP_SERVE_ADDR` is the default `--addr`; the other `TPCP_*` knobs
//! apply to `--prepare`'s decomposition (and `TPCP_MMAP` to `--verify`'s
//! local load). A malformed value exits with status 2.

use tpcp_serve::{request, BatchSub, Client, Opcode, Status};
use twopcp::{EnvOverrides, Model, TwoPcp, TwoPcpConfig};

fn fail(msg: impl AsRef<str>) -> ! {
    eprintln!("tpcp-query: {}", msg.as_ref());
    std::process::exit(1);
}

fn main() {
    let env = EnvOverrides::from_env().unwrap_or_else(|e| {
        eprintln!("tpcp-query: {e}");
        std::process::exit(2);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut prepare: Option<String> = None;
    let mut verify: Option<String> = None;
    let mut smoke = false;
    let mut batch: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next(),
            "--prepare" => prepare = it.next(),
            "--verify" => verify = it.next(),
            "--smoke" => smoke = true,
            "--batch" => batch = it.next(),
            _ => rest.push(arg),
        }
    }

    if let Some(dir) = prepare {
        return prepare_demo(&dir, &env);
    }
    let addr = addr
        .or(env.serve_addr)
        .unwrap_or_else(|| tpcp_serve::DEFAULT_ADDR.to_string());
    let mut client =
        Client::connect(&addr).unwrap_or_else(|e| fail(format!("connect {addr}: {e}")));
    if smoke {
        return run_smoke(&mut client, verify.as_deref(), env.mmap.unwrap_or(false));
    }
    if let Some(source) = batch {
        return run_batch(&mut client, &source);
    }
    run_command(&mut client, &rest);
}

/// Decomposes a small seeded low-rank tensor and saves it as `demo`.
fn prepare_demo(dir: &str, env: &EnvOverrides) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let truth = tpcp_cp::CpModel::new(
        vec![1.0; 4],
        [12usize, 10, 8]
            .iter()
            .map(|&d| tpcp_tensor::random_factor(d, 4, &mut rng))
            .collect(),
    )
    .expect("demo factors");
    let x = truth.reconstruct_dense();
    let config = env.apply(TwoPcpConfig::new(4)).parts(vec![2]).seed(7);
    let outcome = TwoPcp::new(config.clone())
        .decompose_dense(&x)
        .unwrap_or_else(|e| fail(format!("decompose: {e}")));
    let model = Model::from_outcome("demo", &outcome, &config);
    let path = std::path::Path::new(dir).join("demo.2pcpm");
    model
        .save(&path)
        .unwrap_or_else(|e| fail(format!("save {}: {e}", path.display())));
    println!(
        "tpcp-query: saved {} (rank {}, dims {:?}, fit {:.4})",
        path.display(),
        model.rank(),
        model.dims(),
        model.meta.fit
    );
}

/// One query of every opcode; with `verify`, answers are checked bitwise
/// against the same [`Model`] loaded in-process (mapped when `mmap`).
fn run_smoke(client: &mut Client, verify: Option<&str>, mmap: bool) {
    let local = verify
        .map(|p| Model::load_with(p, mmap).unwrap_or_else(|e| fail(format!("load {p}: {e}"))));

    client.ping().unwrap_or_else(|e| fail(format!("PING: {e}")));
    let models = client
        .list_models()
        .unwrap_or_else(|e| fail(format!("LIST_MODELS: {e}")));
    let Some((name, _version)) = models.first().cloned() else {
        fail("LIST_MODELS: server reports no models");
    };
    println!("smoke: serving {} model(s); using {name:?}", models.len());

    let meta = client
        .meta(&name)
        .unwrap_or_else(|e| fail(format!("MODEL_META: {e}")));
    match &meta.compress {
        Some(c) => println!(
            "smoke: compressed model — mlrank {:?}, core {:?}, retained energy {:.4}",
            c.mlrank, c.core_shape, c.energy
        ),
        None => println!("smoke: two-phase model (no compression provenance)"),
    }
    match meta.residency {
        Some(r) => println!("smoke: model is {}-resident server-side", r.label()),
        None => println!("smoke: server did not report residency (pre-v2 server)"),
    }
    let order = meta.dims.len();
    if order < 2 {
        fail("smoke needs an order >= 2 model");
    }
    let origin = vec![0usize; order];
    let fixed = vec![0usize; order - 1];

    let entry = client
        .entry(&name, &origin)
        .unwrap_or_else(|e| fail(format!("GET_ENTRY: {e}")));
    let fiber = client
        .fiber(&name, 0, &fixed)
        .unwrap_or_else(|e| fail(format!("GET_FIBER: {e}")));
    let slice_fixed = vec![0usize; order - 2];
    let (rows, cols, slice) = client
        .slice(&name, 0, 1, &slice_fixed)
        .unwrap_or_else(|e| fail(format!("GET_SLICE: {e}")));
    let top = client
        .top_k(&name, 0, &fixed, 3)
        .unwrap_or_else(|e| fail(format!("TOP_K: {e}")));
    let sims = client
        .similar(&name, 0, 0, 3)
        .unwrap_or_else(|e| fail(format!("SIMILAR: {e}")));
    // Re-issue one query so the cache takes a hit.
    let entry_again = client
        .entry(&name, &origin)
        .unwrap_or_else(|e| fail(format!("GET_ENTRY (repeat): {e}")));
    if entry.to_bits() != entry_again.to_bits() {
        fail("cached GET_ENTRY answer differs from the first");
    }
    if (rows, cols) != (meta.dims[0], meta.dims[1]) {
        fail(format!(
            "GET_SLICE shape {rows}×{cols}, expected {}×{}",
            meta.dims[0], meta.dims[1]
        ));
    }
    println!(
        "smoke: entry={entry:.6} fiber[{}] slice[{rows}x{cols}] top1={:?} sim1={:?}",
        fiber.len(),
        top.first(),
        sims.first()
    );

    if let Some(local) = &local {
        if local.dims() != meta.dims || local.rank() != meta.rank {
            fail("verify model shape differs from served metadata");
        }
        check_bits("entry", entry, local.entry(&origin).unwrap());
        let lf = local.fiber(0, &fixed).unwrap();
        if fiber.len() != lf.len()
            || fiber
                .iter()
                .zip(&lf)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            fail("GET_FIBER answer not bitwise-equal to local reconstruction");
        }
        let ls = local.slice(0, 1, &slice_fixed).unwrap();
        if slice
            .iter()
            .zip(ls.as_slice())
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            fail("GET_SLICE answer not bitwise-equal to local reconstruction");
        }
        if top != local.top_k(0, &fixed, 3).unwrap() {
            fail("TOP_K answer differs from local reconstruction");
        }
        if sims != local.similar_rows(0, 0, 3).unwrap() {
            fail("SIMILAR answer differs from local reconstruction");
        }
        println!("smoke: all answers bitwise-equal to the local model");
    }

    // BATCH: the same queries in one envelope must answer bitwise-equal
    // to the single-frame path, and a bad sub must fail alone.
    let subs = vec![
        request::entry(&name, &origin),
        request::top_k(&name, 0, &fixed, 3),
        request::entry(&name, &[0]), // wrong arity: per-sub error
        request::fiber(&name, 0, &fixed),
    ];
    let resps = client
        .batch(&subs)
        .unwrap_or_else(|e| fail(format!("BATCH: {e}")));
    if resps[0].status != Status::Ok as u16
        || resps[1].status != Status::Ok as u16
        || resps[3].status != Status::Ok as u16
    {
        fail("BATCH: a valid sub-request failed");
    }
    if resps[2].status == Status::Ok as u16 {
        fail("BATCH: malformed sub-request unexpectedly succeeded");
    }
    let batch_entry = tpcp_serve::decode_entry_payload(&resps[0].payload)
        .unwrap_or_else(|e| fail(format!("BATCH entry decode: {e}")));
    if batch_entry.to_bits() != entry.to_bits() {
        fail("BATCH: entry answer not bitwise-equal to single-frame answer");
    }
    let batch_fiber = tpcp_serve::decode_fiber_payload(&resps[3].payload)
        .unwrap_or_else(|e| fail(format!("BATCH fiber decode: {e}")));
    if batch_fiber.len() != fiber.len()
        || batch_fiber
            .iter()
            .zip(&fiber)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        fail("BATCH: fiber answer not bitwise-equal to single-frame answer");
    }
    // Pipelining: responses must come back in request order.
    let piped = client
        .pipeline(&[
            request::entry(&name, &origin),
            request::ping(),
            request::top_k(&name, 0, &fixed, 3),
        ])
        .unwrap_or_else(|e| fail(format!("pipeline: {e}")));
    if piped.len() != 3
        || piped.iter().any(|(s, _)| *s != Status::Ok as u16)
        || !piped[1].1.is_empty()
    {
        fail("pipeline: out-of-order or failed responses");
    }
    let piped_entry = tpcp_serve::decode_entry_payload(&piped[0].1)
        .unwrap_or_else(|e| fail(format!("pipeline entry decode: {e}")));
    if piped_entry.to_bits() != entry.to_bits() {
        fail("pipeline: entry answer not bitwise-equal to single-frame answer");
    }
    println!("smoke: BATCH + pipelining ok (per-sub isolation, ordered responses)");

    let stats = client
        .stats()
        .unwrap_or_else(|e| fail(format!("STATS: {e}")));
    for op in [
        Opcode::Ping,
        Opcode::ListModels,
        Opcode::ModelMeta,
        Opcode::GetEntry,
        Opcode::GetFiber,
        Opcode::GetSlice,
        Opcode::TopK,
        Opcode::Similar,
    ] {
        let s = stats
            .op(op)
            .unwrap_or_else(|| fail("STATS: missing opcode row"));
        if s.snapshot.count == 0 {
            fail(format!("STATS: {} count is zero", op.name()));
        }
        if s.snapshot.buckets.iter().sum::<u64>() != s.snapshot.count {
            fail(format!(
                "STATS: {} histogram does not sum to count",
                op.name()
            ));
        }
    }
    if stats.cache_hits == 0 {
        fail("STATS: no cache hit recorded after a repeated query");
    }
    println!(
        "smoke: stats ok (cache {} hit(s) / {} miss(es), generation {})",
        stats.cache_hits, stats.cache_misses, stats.generation
    );

    let reload = client
        .reload()
        .unwrap_or_else(|e| fail(format!("RELOAD: {e}")));
    if reload.models == 0 {
        fail("RELOAD: zero models after rescan");
    }
    client
        .shutdown()
        .unwrap_or_else(|e| fail(format!("SHUTDOWN: {e}")));
    println!(
        "smoke: PASS (reload gen {}, server asked to stop)",
        reload.generation
    );
}

/// Parses one request line into a [`BatchSub`]. Lines use the same
/// grammar as the single commands; blank lines and `#` comments are
/// skipped by the caller.
fn parse_request_line(line: &str) -> Result<BatchSub, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let idx = |s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("not an index: {s:?}"))
    };
    let idxs = |ss: &[&str]| -> Result<Vec<usize>, String> { ss.iter().map(|s| idx(s)).collect() };
    match toks.as_slice() {
        ["ping"] => Ok(request::ping()),
        ["meta", name] => Ok(request::meta(name)),
        ["entry", name, coords @ ..] if !coords.is_empty() => {
            Ok(request::entry(name, &idxs(coords)?))
        }
        ["fiber", name, mode, fixed @ ..] => Ok(request::fiber(name, idx(mode)?, &idxs(fixed)?)),
        ["slice", name, mode_r, mode_c, fixed @ ..] => Ok(request::slice(
            name,
            idx(mode_r)?,
            idx(mode_c)?,
            &idxs(fixed)?,
        )),
        ["topk", name, mode, k, fixed @ ..] => {
            Ok(request::top_k(name, idx(mode)?, &idxs(fixed)?, idx(k)?))
        }
        ["similar", name, mode, row, k] => {
            Ok(request::similar(name, idx(mode)?, idx(row)?, idx(k)?))
        }
        _ => Err(format!("unrecognised request line: {line:?}")),
    }
}

/// Sends the request list in `source` (a path, or `-` for stdin) as one
/// BATCH envelope, then re-issues every sub on the serial single-frame
/// path and verifies status + payload are bitwise identical.
fn run_batch(client: &mut Client, source: &str) {
    let text = if source == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| fail(format!("read stdin: {e}")));
        buf
    } else {
        std::fs::read_to_string(source).unwrap_or_else(|e| fail(format!("read {source}: {e}")))
    };
    let mut subs = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        subs.push(parse_request_line(line).unwrap_or_else(|e| fail(e)));
    }
    if subs.is_empty() {
        fail("no requests in batch input");
    }
    let resps = client
        .batch(&subs)
        .unwrap_or_else(|e| fail(format!("BATCH: {e}")));
    // Serial reference path: the same frames one at a time (pipeline
    // with one request per call degenerates to write-then-read).
    let mut mismatches = 0usize;
    let mut errors = 0usize;
    for (i, (sub, resp)) in subs.iter().zip(&resps).enumerate() {
        let serial = client
            .pipeline(std::slice::from_ref(sub))
            .unwrap_or_else(|e| fail(format!("serial request {i}: {e}")));
        let (s_status, s_payload) = &serial[0];
        let ok = resp.status == Status::Ok as u16;
        if !ok {
            errors += 1;
        }
        if resp.status != *s_status || resp.payload != *s_payload {
            mismatches += 1;
            eprintln!(
                "batch: sub {i} differs from serial path (batch status {}, serial status {})",
                resp.status, s_status
            );
        }
        let label = Opcode::from_u8(resp.opcode)
            .map(|o| o.name())
            .unwrap_or("?");
        println!(
            "{i}\t{label}\tstatus={}\tbytes={}",
            resp.status,
            resp.payload.len()
        );
    }
    if mismatches > 0 {
        fail(format!(
            "{mismatches}/{} sub-responses not bitwise-equal to the serial path",
            subs.len()
        ));
    }
    println!(
        "batch: PASS ({} sub(s), {} error status(es), all bitwise-equal to serial path)",
        subs.len(),
        errors
    );
}

fn check_bits(what: &str, served: f64, local: f64) {
    if served.to_bits() != local.to_bits() {
        fail(format!(
            "{what}: served {served:?} != local {local:?} (bitwise)"
        ));
    }
}

fn run_command(client: &mut Client, rest: &[String]) {
    let parse = |s: &String| -> usize {
        s.parse()
            .unwrap_or_else(|_| fail(format!("not an index: {s:?}")))
    };
    match rest {
        [cmd] if cmd == "ping" => {
            client.ping().unwrap_or_else(|e| fail(e.to_string()));
            println!("pong");
        }
        [cmd] if cmd == "list" => {
            for (name, version) in client.list_models().unwrap_or_else(|e| fail(e.to_string())) {
                println!("{name}\tv{version}");
            }
        }
        [cmd] if cmd == "stats" => {
            let s = client.stats().unwrap_or_else(|e| fail(e.to_string()));
            println!("opcode\tcount\terrors\tp50_us\tp99_us");
            for op in &s.ops {
                println!(
                    "{}\t{}\t{}\t{}\t{}",
                    op.name,
                    op.snapshot.count,
                    op.snapshot.errors,
                    op.snapshot.quantile_us(0.50),
                    op.snapshot.quantile_us(0.99)
                );
            }
            println!(
                "cache: {} hits / {} misses ({} resident); generation {}",
                s.cache_hits, s.cache_misses, s.cache_len, s.generation
            );
        }
        [cmd] if cmd == "reload" => {
            let r = client.reload().unwrap_or_else(|e| fail(e.to_string()));
            println!("{} model(s), generation {}", r.models, r.generation);
            for e in r.errors {
                eprintln!("skipped: {e}");
            }
        }
        [cmd] if cmd == "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(e.to_string()));
            println!("server stopping");
        }
        [cmd, name] if cmd == "meta" => {
            let m = client.meta(name).unwrap_or_else(|e| fail(e.to_string()));
            println!(
                "{} v{}: rank {}, dims {:?}, seed {}, fit {:.4}, schedule {}, parts {:?}",
                m.name, m.version, m.rank, m.dims, m.seed, m.fit, m.schedule, m.parts
            );
        }
        [cmd, name, coords @ ..] if cmd == "entry" && !coords.is_empty() => {
            let coords: Vec<usize> = coords.iter().map(parse).collect();
            let v = client
                .entry(name, &coords)
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("{v}");
        }
        [cmd, name, mode, fixed @ ..] if cmd == "fiber" => {
            let fixed: Vec<usize> = fixed.iter().map(parse).collect();
            let v = client
                .fiber(name, parse(mode), &fixed)
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("{v:?}");
        }
        [cmd, name, mode, k, fixed @ ..] if cmd == "topk" => {
            let fixed: Vec<usize> = fixed.iter().map(parse).collect();
            let v = client
                .top_k(name, parse(mode), &fixed, parse(k))
                .unwrap_or_else(|e| fail(e.to_string()));
            for (i, x) in v {
                println!("{i}\t{x}");
            }
        }
        [cmd, name, mode, row, k] if cmd == "similar" => {
            let v = client
                .similar(name, parse(mode), parse(row), parse(k))
                .unwrap_or_else(|e| fail(e.to_string()));
            for (i, s) in v {
                println!("{i}\t{s:.6}");
            }
        }
        _ => fail(
            "usage: tpcp-query [--addr A] (--smoke [--verify FILE] | --batch FILE | ping | \
             list | stats | reload | shutdown | meta NAME | entry NAME I… | \
             fiber NAME MODE I… | topk NAME MODE K I… | similar NAME MODE ROW K)",
        ),
    }
}
