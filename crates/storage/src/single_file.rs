//! A paged single-file unit store.
//!
//! [`crate::DiskStore`] keeps one file per unit — simple and robust, but a
//! real array store (SciDB under TensorDB, §VIII-B) packs chunks into one
//! container file. [`SingleFileStore`] provides that layout:
//!
//! ```text
//! file := file_header , page*
//! file_header := magic "2PCPSEGM" (8) , version u32 , reserved u32
//! page := page_header , payload (codec page) , padding to PAGE_ALIGN
//! page_header := live u8 , reserved [u8;3] , payload_len u32
//! ```
//!
//! Writes are append-only: overwriting a unit appends a fresh page and
//! marks the old one dead, so a crash mid-write never corrupts committed
//! data (the codec checksum covers the payload; a torn tail page simply
//! fails validation and is ignored at open). [`SingleFileStore::compact`]
//! rewrites the file without dead pages.

use crate::prefetch::{PrefetchRead, PrefetchSource};
use crate::store::{PageRead, UnitData, UnitStore};
use crate::{codec, Result, StorageError};
use memmap2::{Mmap, MmapOptions};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use tpcp_schedule::UnitId;

const FILE_MAGIC: &[u8; 8] = b"2PCPSEGM";
const FILE_VERSION: u32 = 1;
const FILE_HEADER_LEN: u64 = 16;
const PAGE_HEADER_LEN: u64 = 8;
/// Pages start at multiples of this (buffered-I/O friendly).
const PAGE_ALIGN: u64 = 64;

const LIVE: u8 = 1;
const DEAD: u8 = 0;

#[derive(Clone, Copy)]
struct PageRef {
    /// Offset of the page header.
    offset: u64,
    /// Payload (codec page) length.
    payload_len: u32,
}

/// The live-page index, shared with prefetch readers so they always see
/// the *committed* page for a unit (the writer switches the index only
/// after the new page is durable, and dead pages are never overwritten —
/// append-only — so a reader holding a stale `PageRef` still reads intact,
/// merely outdated data, which the buffer pool's epoch check discards).
type SharedIndex = Arc<RwLock<HashMap<UnitId, PageRef>>>;

/// All units in one append-only, checksummed container file.
///
/// With mmap enabled ([`SingleFileStore::open_with`],
/// [`SingleFileStore::set_mmap`]), reads decode directly from a shared
/// memory map of the container — no seek, no scratch-buffer copy — remapped
/// lazily whenever the live index references a page beyond the mapped
/// length (the container only ever grows, and committed pages never move,
/// so a map stays valid for every offset it covers until a compaction
/// replaces the file outright).
pub struct SingleFileStore {
    path: PathBuf,
    file: File,
    /// Live page per unit (shared with prefetch readers).
    index: SharedIndex,
    /// End-of-file write cursor (aligned).
    cursor: u64,
    bytes_written: u64,
    bytes_read: u64,
    /// Page buffer reused across `read()` calls (no per-fetch allocation).
    scratch: Vec<u8>,
    /// Whether reads go through the container map instead of seek+read.
    mmap: bool,
    /// Lazily (re)created map of the container; dropped on compaction.
    map: Option<Mmap>,
    /// Bumped by [`SingleFileStore::compact`]; prefetch readers hold the
    /// generation they were created under and refuse to read once it
    /// moves (their file handle points at the pre-compaction inode, so
    /// post-compaction offsets would dereference into stale pages).
    generation: Arc<AtomicU64>,
}

fn align_up(v: u64) -> u64 {
    v.div_ceil(PAGE_ALIGN) * PAGE_ALIGN
}

impl SingleFileStore {
    /// Opens (creating if needed) the container at `path`, rebuilding the
    /// live-page index by scanning existing pages, with the buffered read
    /// path.
    ///
    /// # Errors
    /// I/O failures; [`StorageError::Corrupt`] for a bad file header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(path, false)
    }

    /// Opens the container at `path` with the mmap read path explicitly
    /// on or off.
    ///
    /// # Errors
    /// I/O failures; [`StorageError::Corrupt`] for a bad file header.
    pub fn open_with(path: impl AsRef<Path>, mmap: bool) -> Result<Self> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        let mut store = SingleFileStore {
            path: path.as_ref().to_path_buf(),
            file,
            index: Arc::new(RwLock::new(HashMap::new())),
            cursor: FILE_HEADER_LEN,
            bytes_written: 0,
            bytes_read: 0,
            scratch: Vec::new(),
            mmap,
            map: None,
            generation: Arc::new(AtomicU64::new(0)),
        };
        if len == 0 {
            let mut header = Vec::with_capacity(FILE_HEADER_LEN as usize);
            header.extend_from_slice(FILE_MAGIC);
            header.extend_from_slice(&FILE_VERSION.to_le_bytes());
            header.extend_from_slice(&[0u8; 4]);
            store.file.write_all(&header)?;
            store.file.flush()?;
            return Ok(store);
        }
        store.scan()?;
        Ok(store)
    }

    /// Scans the file, validating the header and indexing live pages.
    fn scan(&mut self) -> Result<()> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; FILE_HEADER_LEN as usize];
        self.file
            .read_exact(&mut header)
            .map_err(|_| StorageError::Corrupt {
                reason: "single-file store: truncated file header".into(),
            })?;
        if &header[..8] != FILE_MAGIC {
            return Err(StorageError::Corrupt {
                reason: "single-file store: bad magic".into(),
            });
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != FILE_VERSION {
            return Err(StorageError::Corrupt {
                reason: format!("single-file store: unsupported version {version}"),
            });
        }
        let len = self.file.metadata()?.len();
        let mut offset = FILE_HEADER_LEN;
        while offset + PAGE_HEADER_LEN <= len {
            self.file.seek(SeekFrom::Start(offset))?;
            let mut ph = [0u8; PAGE_HEADER_LEN as usize];
            if self.file.read_exact(&mut ph).is_err() {
                break; // torn tail: ignore
            }
            let live = ph[0];
            let payload_len = u32::from_le_bytes(ph[4..8].try_into().expect("4 bytes"));
            let next = align_up(offset + PAGE_HEADER_LEN + u64::from(payload_len));
            if payload_len == 0 || offset + PAGE_HEADER_LEN + u64::from(payload_len) > len {
                break; // torn tail page: everything before it is intact
            }
            if live == LIVE {
                // Decode just enough to identify the unit; full validation
                // happens on read.
                let mut payload = vec![0u8; payload_len as usize];
                self.file.read_exact(&mut payload)?;
                match codec::decode(&payload) {
                    Ok(data) => {
                        self.index.write().expect("index poisoned").insert(
                            data.unit,
                            PageRef {
                                offset,
                                payload_len,
                            },
                        );
                    }
                    Err(_) => break, // torn tail
                }
            }
            offset = next;
        }
        self.cursor = offset;
        Ok(())
    }

    /// The container file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of live units.
    pub fn len(&self) -> usize {
        self.index.read().expect("index poisoned").len()
    }

    /// `true` when no units are stored.
    pub fn is_empty(&self) -> bool {
        self.index.read().expect("index poisoned").is_empty()
    }

    /// Container file size in bytes (live + dead pages).
    ///
    /// # Errors
    /// I/O failure reading metadata.
    pub fn file_len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Switches the mmap read path on or off. Purely a transport choice:
    /// the decoded data is bit-identical either way.
    pub fn set_mmap(&mut self, mmap: bool) {
        self.mmap = mmap;
        if !mmap {
            self.map = None;
        }
    }

    /// Whether reads currently go through the container map.
    pub fn mmap_enabled(&self) -> bool {
        self.mmap
    }

    /// Ensures the cached map covers `page`, remapping a container that
    /// has grown past the mapped length. Returns `false` (callers fall
    /// back to seek+read) when mmap is off or mapping fails.
    fn ensure_mapped(&mut self, page: PageRef) -> bool {
        if !self.mmap {
            return false;
        }
        let end = page.offset + PAGE_HEADER_LEN + u64::from(page.payload_len);
        if self.map.as_ref().is_some_and(|m| m.len() as u64 >= end) {
            return true;
        }
        self.map = map_with_headroom(&self.file, end.max(self.cursor));
        self.map.as_ref().is_some_and(|m| m.len() as u64 >= end)
    }

    /// The mapped payload bytes of `page`. Call only after
    /// [`SingleFileStore::ensure_mapped`] returned `true`.
    fn mapped_page(&self, page: PageRef) -> &[u8] {
        let start = (page.offset + PAGE_HEADER_LEN) as usize;
        &self.map.as_ref().expect("ensure_mapped verified coverage")
            [start..start + page.payload_len as usize]
    }

    fn mark_dead(&mut self, offset: u64) -> Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&[DEAD])?;
        Ok(())
    }

    /// Rewrites the container without dead pages, reclaiming space.
    ///
    /// Invalidates any live prefetch readers from
    /// [`SingleFileStore::prefetch_reader`]: their file handle points at
    /// the pre-compaction inode, where post-compaction index offsets could
    /// land on stale-but-checksummed pages. The generation bump makes
    /// their subsequent reads fail loudly instead (the buffer pool
    /// degrades to synchronous reads); create fresh readers after
    /// compacting. The pool itself never compacts; this is a maintenance
    /// entry point.
    ///
    /// # Errors
    /// I/O failures; the original file is replaced atomically via rename.
    pub fn compact(&mut self) -> Result<()> {
        // Retire readers *before* the index moves to new-file offsets,
        // and drop our own map — it covers the pre-compaction inode.
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.map = None;
        let tmp_path = self.path.with_extension("compact");
        {
            let mut out = std::io::BufWriter::new(File::create(&tmp_path)?);
            let mut header = Vec::with_capacity(FILE_HEADER_LEN as usize);
            header.extend_from_slice(FILE_MAGIC);
            header.extend_from_slice(&FILE_VERSION.to_le_bytes());
            header.extend_from_slice(&[0u8; 4]);
            out.write_all(&header)?;
            let mut cursor = FILE_HEADER_LEN;
            let mut new_index = HashMap::new();
            let units: Vec<UnitId> = self
                .index
                .read()
                .expect("index poisoned")
                .keys()
                .copied()
                .collect();
            for unit in units {
                let page = self.read_payload(unit)?;
                let mut ph = [0u8; PAGE_HEADER_LEN as usize];
                ph[0] = LIVE;
                ph[4..8].copy_from_slice(&(page.len() as u32).to_le_bytes());
                out.write_all(&ph)?;
                out.write_all(&page)?;
                let end = cursor + PAGE_HEADER_LEN + page.len() as u64;
                let padded = align_up(end);
                out.write_all(&vec![0u8; (padded - end) as usize])?;
                new_index.insert(
                    unit,
                    PageRef {
                        offset: cursor,
                        payload_len: page.len() as u32,
                    },
                );
                cursor = padded;
            }
            out.flush()?;
            *self.index.write().expect("index poisoned") = new_index;
            self.cursor = cursor;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        Ok(())
    }

    /// The committed page reference for `unit`.
    fn page_ref(&self, unit: UnitId) -> Result<PageRef> {
        self.index
            .read()
            .expect("index poisoned")
            .get(&unit)
            .copied()
            .ok_or(StorageError::NotFound(unit))
    }

    fn read_payload(&mut self, unit: UnitId) -> Result<Vec<u8>> {
        let page = self.page_ref(unit)?;
        self.file
            .seek(SeekFrom::Start(page.offset + PAGE_HEADER_LEN))?;
        let mut payload = vec![0u8; page.payload_len as usize];
        self.file.read_exact(&mut payload)?;
        Ok(payload)
    }
}

/// Maps `file` read-only with ~2× headroom past `committed` (the highest
/// byte the caller currently needs to reach). The container is
/// append-only, so the headroom — pure address space today — becomes
/// readable as pages land in it, and the *next* growth usually does not
/// force a remap (a remap discards faulted PTEs, which was measured to
/// cost more than the buffered read it replaces on write-heavy
/// workloads). Reads stay below the committed length, so the
/// beyond-end-of-file region is never touched.
fn map_with_headroom(file: &File, committed: u64) -> Option<Mmap> {
    let len = usize::try_from(committed.saturating_mul(2).max(1 << 20)).ok()?;
    // SAFETY: committed pages never move or shrink (append-only file;
    // compaction drops maps before replacing the container), and callers
    // only dereference offsets of index-committed pages — always below
    // the file's current length, never in the headroom.
    unsafe { MmapOptions::new().len(len).map(file) }.ok()
}

/// Reads, decodes and identity-checks the page at `page` from `file`,
/// reusing `scratch` as the page buffer. Shared by the store and its
/// prefetch readers (each holds its own `File`, hence its own seek
/// cursor).
fn read_page_at(
    file: &mut File,
    page: PageRef,
    unit: UnitId,
    scratch: &mut Vec<u8>,
) -> Result<UnitData> {
    file.seek(SeekFrom::Start(page.offset + PAGE_HEADER_LEN))?;
    scratch.resize(page.payload_len as usize, 0);
    file.read_exact(scratch)?;
    let data = codec::decode(scratch)?;
    if data.unit != unit {
        return Err(StorageError::Corrupt {
            reason: format!("page for {} indexed under {unit}", data.unit),
        });
    }
    Ok(data)
}

/// A [`PrefetchRead`] handle onto a [`SingleFileStore`]: its own `File`
/// (independent seek cursor) over the same container, sharing the live
/// page index. Because the container is append-only and the index is
/// switched only after a new page is durable, every offset the reader can
/// observe points at a fully-written, checksummed page.
struct SingleFileReader {
    file: File,
    index: SharedIndex,
    scratch: Vec<u8>,
    /// Mirror of the store's mmap setting; the reader keeps its own map
    /// over its own handle, remapped on growth just like the store's.
    mmap: bool,
    map: Option<Mmap>,
    /// Store generation this reader's file handle belongs to.
    generation: Arc<AtomicU64>,
    born_at: u64,
}

impl PrefetchRead for SingleFileReader {
    fn read(&mut self, unit: UnitId) -> Result<UnitData> {
        // A compaction moved the live index to offsets of a *new* file;
        // this handle still reads the old inode, so refuse rather than
        // risk dereferencing into a stale-but-checksummed page.
        if self.generation.load(Ordering::SeqCst) != self.born_at {
            return Err(StorageError::Corrupt {
                reason: "single-file prefetch reader invalidated by compaction".into(),
            });
        }
        let page = self
            .index
            .read()
            .expect("index poisoned")
            .get(&unit)
            .copied()
            .ok_or(StorageError::NotFound(unit))?;
        if self.mmap {
            let end = page.offset + PAGE_HEADER_LEN + u64::from(page.payload_len);
            if self.map.as_ref().is_none_or(|m| (m.len() as u64) < end) {
                // Same append-only argument as the store's map; the
                // generation check above already refused the only case
                // where offsets move (compaction).
                self.map = map_with_headroom(&self.file, end);
            }
            if let Some(m) = self.map.as_ref().filter(|m| m.len() as u64 >= end) {
                let start = (page.offset + PAGE_HEADER_LEN) as usize;
                // Fault the page's backing range in as one batched
                // read-ahead before the decoder walks it (the whole point
                // of prefetching from a background thread is to keep major
                // faults off the consumer; this keeps them batched on the
                // worker too).
                m.advise_willneed(start, page.payload_len as usize);
                let data = codec::decode(&m[start..start + page.payload_len as usize])?;
                if data.unit != unit {
                    return Err(StorageError::Corrupt {
                        reason: format!("page for {} indexed under {unit}", data.unit),
                    });
                }
                return Ok(data);
            }
        }
        read_page_at(&mut self.file, page, unit, &mut self.scratch)
    }
}

impl PrefetchSource for SingleFileStore {
    fn prefetch_reader(&self) -> Option<Box<dyn PrefetchRead>> {
        let file = OpenOptions::new().read(true).open(&self.path).ok()?;
        Some(Box::new(SingleFileReader {
            file,
            index: Arc::clone(&self.index),
            scratch: Vec::new(),
            mmap: self.mmap,
            map: None,
            born_at: self.generation.load(Ordering::SeqCst),
            generation: Arc::clone(&self.generation),
        }))
    }
}

impl UnitStore for SingleFileStore {
    fn write(&mut self, data: &UnitData) -> Result<()> {
        let payload = codec::encode(data);
        let offset = self.cursor;
        let mut ph = [0u8; PAGE_HEADER_LEN as usize];
        ph[0] = LIVE;
        ph[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&ph)?;
        self.file.write_all(&payload)?;
        let end = offset + PAGE_HEADER_LEN + payload.len() as u64;
        let padded = align_up(end);
        if padded > end {
            self.file.write_all(&vec![0u8; (padded - end) as usize])?;
        }
        self.file.flush()?;
        // Commit point: only after the new page is durable is the old one
        // retired and the index switched (prefetch readers observing the
        // shared index therefore only ever see committed pages).
        let old = self.index.write().expect("index poisoned").insert(
            data.unit,
            PageRef {
                offset,
                payload_len: payload.len() as u32,
            },
        );
        if let Some(old) = old {
            self.mark_dead(old.offset)?;
        }
        self.cursor = padded;
        self.bytes_written += data.payload_bytes() as u64;
        Ok(())
    }

    fn read(&mut self, unit: UnitId) -> Result<UnitData> {
        let page = self.page_ref(unit)?;
        let mut via_map = None;
        if self.ensure_mapped(page) {
            let data = codec::decode(self.mapped_page(page))?;
            if data.unit != unit {
                return Err(StorageError::Corrupt {
                    reason: format!("page for {} indexed under {unit}", data.unit),
                });
            }
            via_map = Some(data);
        }
        let data = match via_map {
            Some(data) => data,
            None => {
                let mut scratch = std::mem::take(&mut self.scratch);
                let result = read_page_at(&mut self.file, page, unit, &mut scratch);
                self.scratch = scratch;
                result?
            }
        };
        self.bytes_read += data.payload_bytes() as u64;
        Ok(data)
    }

    fn read_slab(&mut self, unit: UnitId) -> Result<PageRead<'_>> {
        let page = self.page_ref(unit)?;
        if self.ensure_mapped(page) {
            return Ok(PageRead::Borrowed(self.mapped_page(page)));
        }
        self.read(unit).map(PageRead::Owned)
    }

    fn note_borrowed_read(&mut self, _unit: UnitId, payload_bytes: u64) {
        self.bytes_read += payload_bytes;
    }

    fn contains(&self, unit: UnitId) -> bool {
        self.index
            .read()
            .expect("index poisoned")
            .contains_key(&unit)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_linalg::Mat;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tpcp_sfs_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("store.seg")
    }

    fn unit(part: usize, seed: f64) -> UnitData {
        UnitData {
            unit: UnitId::new(0, part),
            factor: Mat::filled(3, 2, seed),
            sub_factors: vec![(part as u64, Mat::filled(2, 2, seed + 1.0))],
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let path = tmpfile("roundtrip");
        let mut s = SingleFileStore::open(&path).unwrap();
        for p in 0..5 {
            s.write(&unit(p, p as f64)).unwrap();
        }
        assert_eq!(s.len(), 5);
        for p in 0..5 {
            assert_eq!(s.read(UnitId::new(0, p)).unwrap(), unit(p, p as f64));
        }
        assert!(!s.contains(UnitId::new(1, 0)));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn reopen_rebuilds_index() {
        let path = tmpfile("reopen");
        {
            let mut s = SingleFileStore::open(&path).unwrap();
            s.write(&unit(0, 1.0)).unwrap();
            s.write(&unit(1, 2.0)).unwrap();
            s.write(&unit(0, 9.0)).unwrap(); // overwrite
        }
        let mut s = SingleFileStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 9.0));
        assert_eq!(s.read(UnitId::new(0, 1)).unwrap(), unit(1, 2.0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn overwrites_grow_file_and_compact_reclaims() {
        let path = tmpfile("compact");
        let mut s = SingleFileStore::open(&path).unwrap();
        for _ in 0..10 {
            s.write(&unit(0, 1.0)).unwrap();
        }
        let before = s.file_len().unwrap();
        s.compact().unwrap();
        let after = s.file_len().unwrap();
        assert!(after < before, "compact {before} -> {after}");
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 1.0));
        // Still usable after compaction (writes go to the new tail).
        s.write(&unit(3, 3.0)).unwrap();
        assert_eq!(s.read(UnitId::new(0, 3)).unwrap(), unit(3, 3.0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_page_is_ignored_on_open() {
        let path = tmpfile("torn");
        {
            let mut s = SingleFileStore::open(&path).unwrap();
            s.write(&unit(0, 1.0)).unwrap();
            s.write(&unit(1, 2.0)).unwrap();
        }
        // Truncate into the middle of the last page's payload (pages are
        // padded to 64-byte alignment, so cut deep enough to pass the
        // padding and bite into the checksummed payload).
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 100).unwrap();
        drop(f);
        let mut s = SingleFileStore::open(&path).unwrap();
        // First unit intact, the torn one is gone.
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 1.0));
        assert!(!s.contains(UnitId::new(0, 1)));
        // And the store accepts new writes.
        s.write(&unit(1, 5.0)).unwrap();
        assert_eq!(s.read(UnitId::new(0, 1)).unwrap(), unit(1, 5.0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmpfile("badheader");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"NOTASEGMENT_FILE").unwrap();
        assert!(matches!(
            SingleFileStore::open(&path),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn reader_follows_live_index_across_overwrites() {
        let path = tmpfile("reader");
        let mut s = SingleFileStore::open(&path).unwrap();
        s.write(&unit(0, 1.0)).unwrap();
        let mut r = s.prefetch_reader().unwrap();
        assert_eq!(r.read(UnitId::new(0, 0)).unwrap(), unit(0, 1.0));
        // An overwrite committed by the store is visible through the
        // shared index, via the reader's own file handle.
        s.write(&unit(0, 4.0)).unwrap();
        assert_eq!(r.read(UnitId::new(0, 0)).unwrap(), unit(0, 4.0));
        assert!(matches!(
            r.read(UnitId::new(0, 9)),
            Err(StorageError::NotFound(_))
        ));
        // Reader traffic bypasses the store's counters.
        assert_eq!(s.bytes_read(), 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn compaction_invalidates_live_readers() {
        let path = tmpfile("compact_reader");
        let mut s = SingleFileStore::open(&path).unwrap();
        for _ in 0..4 {
            s.write(&unit(0, 1.0)).unwrap(); // dead pages to reclaim
        }
        s.write(&unit(1, 2.0)).unwrap();
        let mut r = s.prefetch_reader().unwrap();
        assert_eq!(r.read(UnitId::new(0, 0)).unwrap(), unit(0, 1.0));
        s.compact().unwrap();
        // The old handle must refuse (never silently read stale pages)…
        assert!(matches!(
            r.read(UnitId::new(0, 0)),
            Err(StorageError::Corrupt { .. })
        ));
        // …while the store and a fresh reader serve the compacted file.
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 1.0));
        let mut r2 = s.prefetch_reader().unwrap();
        assert_eq!(r2.read(UnitId::new(0, 1)).unwrap(), unit(1, 2.0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn scratch_reuse_keeps_reads_correct_across_sizes() {
        let path = tmpfile("scratch");
        let mut s = SingleFileStore::open(&path).unwrap();
        let big = UnitData {
            unit: UnitId::new(0, 0),
            factor: Mat::filled(7, 3, 1.5),
            sub_factors: vec![(0, Mat::filled(5, 3, 2.5))],
        };
        let small = unit(1, 9.0);
        s.write(&big).unwrap();
        s.write(&small).unwrap();
        for _ in 0..3 {
            assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), big);
            assert_eq!(s.read(UnitId::new(0, 1)).unwrap(), small);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn mmap_reads_match_buffered_and_follow_growth() {
        let path = tmpfile("mmap");
        let mut s = SingleFileStore::open_with(&path, true).unwrap();
        assert!(s.mmap_enabled());
        s.write(&unit(0, 1.0)).unwrap();
        // First read maps the container…
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 1.0));
        // …appends land beyond the mapped length and force a remap…
        for p in 1..6 {
            s.write(&unit(p, p as f64)).unwrap();
        }
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 1.0));
        for p in 1..6 {
            assert_eq!(s.read(UnitId::new(0, p)).unwrap(), unit(p, p as f64));
        }
        // …and an overwrite (appended page, index switch) is visible too.
        s.write(&unit(0, 42.0)).unwrap();
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 42.0));
        // Bitwise equal to a buffered-store view of the same container.
        let mut buffered = SingleFileStore::open_with(&path, false).unwrap();
        for p in 1..6 {
            assert_eq!(
                buffered.read(UnitId::new(0, p)).unwrap(),
                s.read(UnitId::new(0, p)).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[cfg(unix)]
    #[test]
    fn mmap_read_slab_hands_out_borrowed_pages() {
        use crate::store::PageRead;
        let path = tmpfile("mmap_slab");
        let mut s = SingleFileStore::open_with(&path, true).unwrap();
        s.write(&unit(2, 7.0)).unwrap();
        match s.read_slab(UnitId::new(0, 2)).unwrap() {
            PageRead::Borrowed(page) => {
                assert_eq!(crate::codec::decode(page).unwrap(), unit(2, 7.0));
            }
            PageRead::Owned(_) => panic!("mmap container must hand out borrowed slabs"),
        }
        // Borrowed reads self-account only via the caller's note.
        assert_eq!(s.bytes_read(), 0);
        s.note_borrowed_read(UnitId::new(0, 2), 9);
        assert_eq!(s.bytes_read(), 9);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn mmap_survives_compaction() {
        let path = tmpfile("mmap_compact");
        let mut s = SingleFileStore::open_with(&path, true).unwrap();
        for _ in 0..5 {
            s.write(&unit(0, 3.0)).unwrap();
        }
        s.write(&unit(1, 4.0)).unwrap();
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 3.0)); // map live
        s.compact().unwrap();
        // The map was dropped with the old inode; reads remap the new one.
        assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), unit(0, 3.0));
        assert_eq!(s.read(UnitId::new(0, 1)).unwrap(), unit(1, 4.0));
        let mut r = s.prefetch_reader().unwrap();
        assert_eq!(r.read(UnitId::new(0, 1)).unwrap(), unit(1, 4.0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn mmap_reader_follows_live_index() {
        let path = tmpfile("mmap_reader");
        let mut s = SingleFileStore::open_with(&path, true).unwrap();
        s.write(&unit(0, 1.0)).unwrap();
        let mut r = s.prefetch_reader().unwrap();
        assert_eq!(r.read(UnitId::new(0, 0)).unwrap(), unit(0, 1.0));
        // Overwrites append past the reader's mapped length: remap path.
        s.write(&unit(0, 8.0)).unwrap();
        assert_eq!(r.read(UnitId::new(0, 0)).unwrap(), unit(0, 8.0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn works_under_the_buffer_pool() {
        use crate::{BufferPool, PolicyKind};
        let path = tmpfile("pool");
        let mut s = SingleFileStore::open(&path).unwrap();
        for p in 0..4 {
            s.write(&unit(p, p as f64)).unwrap();
        }
        let size = unit(0, 0.0).payload_bytes();
        let mut pool = BufferPool::new(s, size * 2, PolicyKind::Lru);
        for p in 0..4 {
            let id = UnitId::new(0, p);
            pool.acquire(&[id]).unwrap();
            pool.get_mut(id).unwrap().factor.set(0, 0, 100.0 + p as f64);
            pool.release(&[id]);
        }
        pool.flush_and_clear().unwrap();
        let mut s = pool.into_store().unwrap();
        for p in 0..4 {
            assert_eq!(
                s.read(UnitId::new(0, p)).unwrap().factor.get(0, 0),
                100.0 + p as f64
            );
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
