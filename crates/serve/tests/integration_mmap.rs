//! Shared-mmap residency end-to-end: a registry opened with mmap on
//! (`tpcp-serve` under `TPCP_MMAP=1`) serves factors straight out of one
//! mapped container per model version. A RELOAD hot swap must never munmap under a pinned reader —
//! sessions that pinned the old generation keep answering bitwise off
//! the old map until they drop, while new sessions get the new map.

use std::sync::Arc;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_serve::{request, Client, ModelRegistry, ServeOptions, Server, Status};
use twopcp::{Model, ModelMeta, Residency};

const DIMS: [usize; 3] = [11, 8, 6];
const RANK: usize = 4;

fn make_model(seed: u64) -> Model {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let factors: Vec<Mat> = DIMS
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, RANK, &mut rng))
        .collect();
    Model::new(
        ModelMeta {
            name: "demo".into(),
            rank: RANK,
            dims: DIMS.to_vec(),
            seed,
            fit: 0.97,
            schedule: "HO".into(),
            parts: vec![2],
            compress: None,
        },
        CpModel::new(vec![2.0, 1.5, 1.0, 0.5], factors).unwrap(),
    )
    .unwrap()
}

struct DirGuard(std::path::PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn shared_mmap_residency_survives_reload_with_pinned_sessions() {
    let dir = std::env::temp_dir().join(format!("tpcp_mmap_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let guard = DirGuard(dir.clone());

    let v1 = make_model(61);
    let v2 = make_model(62);
    v1.save(dir.join("demo.2pcpm")).unwrap();

    // Sanity: the registry really did map the container.
    let registry = Arc::new(ModelRegistry::open_with(&dir, true).unwrap());
    let snap = registry.snapshot();
    assert_eq!(
        snap["demo"].model.residency(),
        Residency::Mapped,
        "an mmap registry load must be mmap-resident"
    );

    let mut opts = ServeOptions::new(&dir);
    opts.addr = "127.0.0.1:0".into();
    opts.max_sessions = 16;
    let server = Server::start_with_registry(opts, registry).unwrap();
    let addr = server.local_addr().to_string();

    // Pin v1; the wire metadata must report the mapped residency.
    let mut pinned = Client::connect(&addr).unwrap();
    let meta = pinned.meta("demo").unwrap();
    assert_eq!(meta.residency, Some(Residency::Mapped));
    let pinned_version = meta.version;

    let probe: Vec<Vec<usize>> = (0..24)
        .map(|q| DIMS.iter().enumerate().map(|(m, &d)| (q + m) % d).collect())
        .collect();
    let before: Vec<u64> = probe
        .iter()
        .map(|c| pinned.entry("demo", c).unwrap().to_bits())
        .collect();
    for (c, &bits) in probe.iter().zip(&before) {
        assert_eq!(bits, v1.entry(c).unwrap().to_bits());
    }

    // Hot swap: the save replaces the file via tmp+rename (the old inode
    // stays alive under the old map) and RELOAD maps the new file.
    v2.save(dir.join("demo.2pcpm")).unwrap();
    let mut admin = Client::connect(&addr).unwrap();
    let reload = admin.reload().unwrap();
    assert!(reload.errors.is_empty());

    // The pinned session keeps reading the old map: every answer —
    // single frames and a big batch — must stay bitwise v1. If the swap
    // had munmapped under the reader this would fault or corrupt.
    assert_eq!(pinned.meta("demo").unwrap().version, pinned_version);
    for (c, &bits) in probe.iter().zip(&before) {
        assert_eq!(
            pinned.entry("demo", c).unwrap().to_bits(),
            bits,
            "pinned session answer changed after hot swap"
        );
    }
    let subs: Vec<_> = probe.iter().map(|c| request::entry("demo", c)).collect();
    let resps = pinned.batch(&subs).unwrap();
    for ((r, &bits), c) in resps.iter().zip(&before).zip(&probe) {
        assert_eq!(r.status, Status::Ok as u16);
        let got = tpcp_serve::decode_entry_payload(&r.payload).unwrap();
        assert_eq!(got.to_bits(), bits, "batched answer drifted for {c:?}");
    }

    // A fresh session pins the new generation: mapped again, answering
    // bitwise off the new container.
    let mut fresh = Client::connect(&addr).unwrap();
    let meta = fresh.meta("demo").unwrap();
    assert!(meta.version > pinned_version);
    assert_eq!(meta.residency, Some(Residency::Mapped));
    for c in &probe {
        assert_eq!(
            fresh.entry("demo", c).unwrap().to_bits(),
            v2.entry(c).unwrap().to_bits()
        );
    }

    // The pinned session is still healthy right up to the end.
    for (c, &bits) in probe.iter().zip(&before) {
        assert_eq!(pinned.entry("demo", c).unwrap().to_bits(), bits);
    }

    admin.shutdown().unwrap();
    server.join().unwrap();
    drop(guard);
}
