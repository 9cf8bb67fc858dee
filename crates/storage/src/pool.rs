//! The buffer pool: fixed-capacity frames over 8 KiB blocks.
//!
//! Every heap page and B+-tree node in a catalog lives behind one
//! [`BufferPool`]. A *frame* holds the decoded in-memory form of one block
//! (a slotted [`Page`] or a [`Node`]); when the pool is full, a clock
//! (second-chance) sweep evicts an unpinned frame, writing it back to its
//! *backing store* first if dirty. The backing store is scratch space —
//! either an in-memory block vector or a spill file under the data
//! directory — and is **never** consulted by recovery, which rebuilds
//! state from the checkpoint plus the WAL. That split keeps the
//! crash-safety story of the checkpoint protocol (generation files +
//! manifest rename) untouched while bounding resident memory.
//!
//! Write-back ordering still honours the WAL rule (flush log before
//! page): before a dirty frame is written the pool invokes the *WAL
//! barrier* hook the engine installs ([`BufferPool::set_wal_barrier`]),
//! which flushes the log tail. The hook uses a `try_lock` internally so a
//! checkpoint (which holds the durability lock *and* faults pages in) can
//! never deadlock against an eviction — if the durability lock is already
//! held, the log is quiescent and the barrier is a no-op.
//!
//! Concurrency: one mutex guards all pool state, and accessor closures run
//! under it. Closures must therefore never re-enter the pool — each
//! accessor documents this. Pins exist for callers that need residency
//! guarantees *across* accessor calls (`pin`/`unpin`); the clock sweep
//! never evicts a pinned frame.
//!
//! Fail point: `storage::pool_evict` fires at the top of every eviction,
//! before any state changes — an injected error leaves the pool intact.

use crate::btree::node::Node;
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PAGE_SIZE};
use parking_lot::Mutex;
use recdb_obs::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifies one paged file (a heap or an index) within a pool.
pub type FileId = u32;

/// What kind of blocks a pool file holds — decides how spilled blocks are
/// decoded when faulted back in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Slotted heap pages ([`Page`]).
    Heap,
    /// B+-tree nodes ([`Node`]).
    Index,
}

/// The decoded contents of one frame.
#[derive(Debug, Clone)]
pub enum FrameData {
    /// A heap page.
    Heap(Page),
    /// A B+-tree node.
    Node(Node),
}

impl FrameData {
    fn encode(&self) -> Vec<u8> {
        match self {
            // Spill blocks are scratch, not checkpoint images: the LSN
            // field is meaningless there, so heap pages spill with LSN 0.
            FrameData::Heap(p) => p.encode_block(0),
            FrameData::Node(n) => n.encode_block(),
        }
    }

    fn decode(kind: FileKind, block: &[u8], label: &str, page_no: u32) -> StorageResult<Self> {
        match kind {
            FileKind::Heap => {
                Page::decode_block(block, label, page_no).map(|(p, _lsn)| FrameData::Heap(p))
            }
            FileKind::Index => Node::decode_block(block, label, page_no).map(FrameData::Node),
        }
    }

    fn kind(&self) -> FileKind {
        match self {
            FrameData::Heap(_) => FileKind::Heap,
            FrameData::Node(_) => FileKind::Index,
        }
    }
}

#[derive(Debug)]
struct Frame {
    key: (FileId, u32),
    data: FrameData,
    /// Frame content is newer than the backing store.
    dirty: bool,
    /// Pin count: pinned frames are never evicted.
    pins: u32,
    /// Second-chance bit for the clock sweep.
    referenced: bool,
}

/// Where evicted blocks go.
enum Backing {
    /// Encoded blocks held in memory (default for non-durable engines:
    /// eviction still exercises the full encode/checksum path).
    Memory(Vec<Option<Box<[u8]>>>),
    /// A spill file on disk; block `n` lives at offset `n * PAGE_SIZE`.
    Disk { file: File, path: PathBuf },
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Memory(blocks) => write!(f, "Memory({} blocks)", blocks.len()),
            Backing::Disk { path, .. } => write!(f, "Disk({})", path.display()),
        }
    }
}

#[derive(Debug)]
struct FileState {
    kind: FileKind,
    /// Human-readable label used in corruption errors (e.g. `ratings`).
    label: String,
    backing: Backing,
    page_count: u32,
}

#[derive(Default)]
struct PoolInner {
    /// Frame slots; `None` slots are free.
    frames: Vec<Option<Frame>>,
    /// Free slot indices (from evictions and file removals).
    free: Vec<usize>,
    /// Residency map: `(file, page) → slot`.
    map: HashMap<(FileId, u32), usize>,
    /// Clock hand for the second-chance sweep.
    hand: usize,
    files: HashMap<FileId, FileState>,
    next_file: FileId,
}

struct PoolMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    pinned: Arc<Gauge>,
}

type Barrier = Box<dyn Fn() + Send + Sync>;

/// A fixed-capacity buffer pool. See the module docs for the design.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    spill_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pinned: AtomicU64,
    metrics: OnceLock<PoolMetrics>,
    barrier: Mutex<Option<Barrier>>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("spill_dir", &self.spill_dir)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl BufferPool {
    fn with_capacity(capacity: usize, spill_dir: Option<PathBuf>) -> Self {
        BufferPool {
            inner: Mutex::new(PoolInner::default()),
            // A pool smaller than 2 frames cannot even run a leaf split
            // (old + new node resident); clamp rather than error.
            capacity: capacity.max(2),
            spill_dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pinned: AtomicU64::new(0),
            metrics: OnceLock::new(),
            barrier: Mutex::new(None),
        }
    }

    /// A bounded pool whose evicted blocks are kept in memory (encoded and
    /// checksummed, so eviction exercises the real write-back path).
    pub fn in_memory(capacity: usize) -> Self {
        BufferPool::with_capacity(capacity, None)
    }

    /// A pool that never evicts: every frame stays resident. This is the
    /// default for ad-hoc catalogs created without an engine.
    pub fn unbounded() -> Self {
        BufferPool::with_capacity(usize::MAX, None)
    }

    /// A bounded pool that spills evicted blocks to files under `dir`
    /// (created on first spill). The spill files are scratch: recovery
    /// never reads them.
    pub fn spilling(capacity: usize, dir: impl Into<PathBuf>) -> Self {
        BufferPool::with_capacity(capacity, Some(dir.into()))
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Install the flush-log-before-page hook, called before every dirty
    /// write-back. The hook must be deadlock-free against pool accessors
    /// (use `try_lock` on any lock that is ever held around a pool call).
    pub fn set_wal_barrier(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.barrier.lock() = Some(Box::new(f));
    }

    /// Register the pool's counters with a metrics registry. May be called
    /// once; later calls are ignored. Counts accumulated before attachment
    /// are carried over.
    pub fn attach_metrics(&self, registry: &Registry) {
        let m = PoolMetrics {
            hits: registry.counter("recdb_buffer_pool_hits_total"),
            misses: registry.counter("recdb_buffer_pool_misses_total"),
            evictions: registry.counter("recdb_pages_evicted_total"),
            pinned: registry.gauge("recdb_pages_pinned"),
        };
        m.hits.add(self.hits());
        m.misses.add(self.misses());
        m.evictions.add(self.evictions());
        m.pinned.set(self.pinned_pages() as i64);
        let _ = self.metrics.set(m);
    }

    /// Total frame hits (requested block already resident).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total frame misses (block faulted in from the backing store).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of frames currently pinned (should be zero at rest).
    pub fn pinned_pages(&self) -> u64 {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Number of frames currently resident.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().map.len()
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.hits.inc();
        }
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.misses.inc();
        }
    }

    fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.evictions.inc();
        }
    }

    fn pinned_delta(&self, delta: i64) {
        if delta > 0 {
            self.pinned.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            self.pinned.fetch_sub((-delta) as u64, Ordering::Relaxed);
        }
        if let Some(m) = self.metrics.get() {
            m.pinned.add(delta);
        }
    }

    /// Register a new, empty paged file. `label` names it in corruption
    /// errors (conventionally the table or index name).
    pub fn create_file(&self, kind: FileKind, label: &str) -> FileId {
        let mut inner = self.inner.lock();
        let id = inner.next_file;
        inner.next_file += 1;
        inner.files.insert(
            id,
            FileState {
                kind,
                label: label.to_owned(),
                backing: Backing::Memory(Vec::new()),
                page_count: 0,
            },
        );
        id
    }

    /// Drop a file: its frames, backing blocks, and any spill file on
    /// disk. Called from table/index destructors.
    pub fn remove_file(&self, file: FileId) {
        let mut inner = self.inner.lock();
        self.drop_file_frames(&mut inner, file, 0);
        if let Some(state) = inner.files.remove(&file) {
            if let Backing::Disk { path, .. } = state.backing {
                let _ = fs::remove_file(path);
            }
        }
    }

    /// Number of pages in `file`.
    pub fn page_count(&self, file: FileId) -> u32 {
        self.inner
            .lock()
            .files
            .get(&file)
            .map(|s| s.page_count)
            .unwrap_or(0)
    }

    /// Append a fresh page to `file`, returning its page number. The new
    /// frame starts dirty (it exists nowhere else yet).
    pub fn allocate_page(&self, file: FileId, data: FrameData) -> StorageResult<u32> {
        let mut inner = self.inner.lock();
        let state = file_state(&inner, file)?;
        debug_assert_eq!(state.kind, data.kind());
        let page_no = state.page_count;
        let slot = self.ensure_slot(&mut inner)?;
        inner.frames[slot] = Some(Frame {
            key: (file, page_no),
            data,
            dirty: true,
            pins: 0,
            referenced: true,
        });
        inner.map.insert((file, page_no), slot);
        if let Some(state) = inner.files.get_mut(&file) {
            state.page_count = page_no + 1;
        }
        Ok(page_no)
    }

    /// Write `data` through to the backing store as page `page_no`
    /// (replacing an existing page, or appending at `page_count`). Used by
    /// recovery and rollback to install page images; the frame cache is
    /// refreshed if the page was resident.
    pub fn install_page(&self, file: FileId, page_no: u32, data: FrameData) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        let state = file_state(&inner, file)?;
        debug_assert_eq!(state.kind, data.kind());
        if page_no > state.page_count {
            return Err(StorageError::Corrupt(format!(
                "install of page {page_no} past end of pool file `{}` ({} pages)",
                state.label, state.page_count
            )));
        }
        let block = data.encode();
        if let Some(&slot) = inner.map.get(&(file, page_no)) {
            if let Some(frame) = inner.frames[slot].as_mut() {
                frame.data = data;
                frame.dirty = false;
                frame.referenced = true;
            }
        }
        let state = inner
            .files
            .get_mut(&file)
            .ok_or_else(|| StorageError::Corrupt(format!("unknown pool file {file}")))?;
        state.page_count = state.page_count.max(page_no + 1);
        Self::write_backing(state, page_no, &block, self.spill_dir.as_deref())?;
        Ok(())
    }

    /// Shrink `file` to its first `keep` pages, dropping frames and
    /// backing blocks past the cut.
    pub fn truncate_file(&self, file: FileId, keep: u32) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        let state = file_state(&inner, file)?;
        if state.page_count <= keep {
            return Ok(());
        }
        self.drop_file_frames(&mut inner, file, keep);
        let state = inner
            .files
            .get_mut(&file)
            .ok_or_else(|| StorageError::Corrupt(format!("unknown pool file {file}")))?;
        state.page_count = keep;
        match &mut state.backing {
            Backing::Memory(blocks) => blocks.truncate(keep as usize),
            Backing::Disk { file, .. } => {
                file.set_len(keep as u64 * PAGE_SIZE as u64)
                    .map_err(|e| StorageError::io("truncate spill file", e))?;
            }
        }
        Ok(())
    }

    /// Read access to a heap page. The closure runs with the frame pinned
    /// and the pool locked: it must not call back into the pool.
    pub fn with_page<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&Page) -> R,
    ) -> StorageResult<R> {
        self.with_frame(file, page_no, false, |data| match data {
            FrameData::Heap(p) => Ok(f(p)),
            FrameData::Node(_) => Err(kind_mismatch(file, page_no, "heap page", "index node")),
        })
    }

    /// Write access to a heap page; marks the frame dirty. Same closure
    /// rules as [`BufferPool::with_page`].
    pub fn with_page_mut<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        self.with_frame(file, page_no, true, |data| match data {
            FrameData::Heap(p) => Ok(f(p)),
            FrameData::Node(_) => Err(kind_mismatch(file, page_no, "heap page", "index node")),
        })
    }

    /// Read access to a B+-tree node. Same closure rules as
    /// [`BufferPool::with_page`].
    pub fn with_node<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&Node) -> R,
    ) -> StorageResult<R> {
        self.with_frame(file, page_no, false, |data| match data {
            FrameData::Node(n) => Ok(f(n)),
            FrameData::Heap(_) => Err(kind_mismatch(file, page_no, "index node", "heap page")),
        })
    }

    /// Write access to a B+-tree node; marks the frame dirty.
    pub fn with_node_mut<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Node) -> R,
    ) -> StorageResult<R> {
        self.with_frame(file, page_no, true, |data| match data {
            FrameData::Node(n) => Ok(f(n)),
            FrameData::Heap(_) => Err(kind_mismatch(file, page_no, "index node", "heap page")),
        })
    }

    /// Pin a page resident until the matching [`BufferPool::unpin`]. Pins
    /// nest. A pinned frame is never evicted, so hold pins only across
    /// short sequences — a leaked pin shrinks the pool permanently.
    pub fn pin(&self, file: FileId, page_no: u32) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        let slot = self.fetch_slot(&mut inner, file, page_no)?;
        if let Some(frame) = inner.frames[slot].as_mut() {
            frame.pins += 1;
            if frame.pins == 1 {
                self.pinned_delta(1);
            }
        }
        Ok(())
    }

    /// Release one pin taken with [`BufferPool::pin`].
    pub fn unpin(&self, file: FileId, page_no: u32) {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&(file, page_no)) {
            if let Some(frame) = inner.frames[slot].as_mut() {
                debug_assert!(frame.pins > 0, "unpin without pin");
                frame.pins = frame.pins.saturating_sub(1);
                if frame.pins == 0 {
                    self.pinned_delta(-1);
                }
            }
        }
    }

    /// Fetch the frame for `(file, page_no)`, pin it for the duration of
    /// the closure, and run the closure under the pool lock.
    fn with_frame<R>(
        &self,
        file: FileId,
        page_no: u32,
        mark_dirty: bool,
        f: impl FnOnce(&mut FrameData) -> StorageResult<R>,
    ) -> StorageResult<R> {
        let mut inner = self.inner.lock();
        let slot = self.fetch_slot(&mut inner, file, page_no)?;
        let frame = inner.frames[slot]
            .as_mut()
            .ok_or_else(|| StorageError::Corrupt("fetched frame slot is empty".into()))?;
        frame.pins += 1;
        if mark_dirty {
            frame.dirty = true;
        }
        let result = f(&mut frame.data);
        frame.pins -= 1;
        result
    }

    /// Resolve `(file, page_no)` to a resident frame slot, faulting the
    /// block in from the backing store on a miss.
    fn fetch_slot(
        &self,
        inner: &mut PoolInner,
        file: FileId,
        page_no: u32,
    ) -> StorageResult<usize> {
        if let Some(&slot) = inner.map.get(&(file, page_no)) {
            self.record_hit();
            if let Some(frame) = inner.frames[slot].as_mut() {
                frame.referenced = true;
            }
            return Ok(slot);
        }
        self.record_miss();
        let state = inner
            .files
            .get_mut(&file)
            .ok_or_else(|| StorageError::Corrupt(format!("unknown pool file {file}")))?;
        if page_no >= state.page_count {
            return Err(StorageError::InvalidRid {
                page: page_no,
                slot: 0,
            });
        }
        let (kind, label) = (state.kind, state.label.clone());
        let block = Self::read_backing(state, page_no)?;
        let data = FrameData::decode(kind, &block, &label, page_no)?;
        let slot = self.ensure_slot(inner)?;
        inner.frames[slot] = Some(Frame {
            key: (file, page_no),
            data,
            dirty: false,
            pins: 0,
            referenced: true,
        });
        inner.map.insert((file, page_no), slot);
        Ok(slot)
    }

    /// Find a free frame slot, evicting if the pool is at capacity.
    fn ensure_slot(&self, inner: &mut PoolInner) -> StorageResult<usize> {
        if let Some(slot) = inner.free.pop() {
            return Ok(slot);
        }
        if inner.frames.len() < self.capacity {
            inner.frames.push(None);
            return Ok(inner.frames.len() - 1);
        }
        let victim = self.find_victim(inner)?;
        self.evict_slot(inner, victim)?;
        Ok(victim)
    }

    /// Clock (second-chance) sweep: skip pinned frames, clear reference
    /// bits, take the first unreferenced unpinned frame. Two full sweeps
    /// with no victim means every frame is pinned.
    fn find_victim(&self, inner: &mut PoolInner) -> StorageResult<usize> {
        let slots = inner.frames.len();
        for _ in 0..2 * slots {
            let i = inner.hand;
            inner.hand = (inner.hand + 1) % slots;
            match inner.frames[i].as_mut() {
                None => return Ok(i),
                Some(f) if f.pins > 0 => continue,
                Some(f) if f.referenced => f.referenced = false,
                Some(_) => return Ok(i),
            }
        }
        Err(StorageError::PoolExhausted {
            capacity: self.capacity,
        })
    }

    /// Evict the frame in `slot`: flush the WAL (barrier hook), write the
    /// block back if dirty, then free the slot. On error the frame is
    /// left untouched.
    fn evict_slot(&self, inner: &mut PoolInner, slot: usize) -> StorageResult<()> {
        recdb_fault::fail_point("storage::pool_evict")?;
        let (key, block) = match inner.frames[slot].as_ref() {
            Some(f) => (f.key, f.dirty.then(|| f.data.encode())),
            None => return Ok(()),
        };
        if let Some(block) = block {
            if let Some(barrier) = self.barrier.lock().as_ref() {
                barrier();
            }
            let state = inner
                .files
                .get_mut(&key.0)
                .ok_or_else(|| StorageError::Corrupt(format!("unknown pool file {}", key.0)))?;
            Self::write_backing(state, key.1, &block, self.spill_dir.as_deref())?;
        }
        inner.frames[slot] = None;
        inner.map.remove(&key);
        self.record_eviction();
        Ok(())
    }

    /// Drop every resident frame of `file` with page number `>= from`,
    /// without write-back (the pages are being discarded).
    fn drop_file_frames(&self, inner: &mut PoolInner, file: FileId, from: u32) {
        let doomed: Vec<(FileId, u32)> = inner
            .map
            .keys()
            .filter(|(f, p)| *f == file && *p >= from)
            .copied()
            .collect();
        for key in doomed {
            if let Some(slot) = inner.map.remove(&key) {
                if let Some(frame) = inner.frames[slot].take() {
                    if frame.pins > 0 {
                        self.pinned_delta(-1);
                    }
                }
                inner.free.push(slot);
            }
        }
    }

    fn write_backing(
        state: &mut FileState,
        page_no: u32,
        block: &[u8],
        spill_dir: Option<&std::path::Path>,
    ) -> StorageResult<()> {
        // First spill of a file in a disk-backed pool upgrades its backing
        // from the (empty-or-small) memory vector to a spill file.
        if let (Backing::Memory(blocks), Some(dir)) = (&state.backing, spill_dir) {
            fs::create_dir_all(dir).map_err(|e| StorageError::io("create spill dir", e))?;
            let path = dir.join(format!("{}.spill", state.label));
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|e| StorageError::io("create spill file", e))?;
            for (n, b) in blocks.iter().enumerate() {
                if let Some(b) = b {
                    file.seek(SeekFrom::Start(n as u64 * PAGE_SIZE as u64))
                        .map_err(|e| StorageError::io("seek spill file", e))?;
                    file.write_all(b)
                        .map_err(|e| StorageError::io("write spill file", e))?;
                }
            }
            state.backing = Backing::Disk { file, path };
        }
        match &mut state.backing {
            Backing::Memory(blocks) => {
                let n = page_no as usize;
                if blocks.len() <= n {
                    blocks.resize_with(n + 1, || None);
                }
                blocks[n] = Some(block.to_vec().into_boxed_slice());
                Ok(())
            }
            Backing::Disk { file, .. } => {
                file.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))
                    .map_err(|e| StorageError::io("seek spill file", e))?;
                file.write_all(block)
                    .map_err(|e| StorageError::io("write spill file", e))
            }
        }
    }

    fn read_backing(state: &mut FileState, page_no: u32) -> StorageResult<Vec<u8>> {
        match &mut state.backing {
            Backing::Memory(blocks) => blocks
                .get(page_no as usize)
                .and_then(|b| b.as_ref())
                .map(|b| b.to_vec())
                .ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "pool file `{}` page {page_no} has no backing block",
                        state.label
                    ))
                }),
            Backing::Disk { file, .. } => {
                file.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))
                    .map_err(|e| StorageError::io("seek spill file", e))?;
                let mut block = vec![0u8; PAGE_SIZE];
                file.read_exact(&mut block)
                    .map_err(|e| StorageError::io("read spill file", e))?;
                Ok(block)
            }
        }
    }
}

fn file_state(inner: &PoolInner, file: FileId) -> StorageResult<&FileState> {
    inner
        .files
        .get(&file)
        .ok_or_else(|| StorageError::Corrupt(format!("unknown pool file {file}")))
}

fn kind_mismatch(file: FileId, page_no: u32, wanted: &str, got: &str) -> StorageError {
    StorageError::Corrupt(format!(
        "pool file {file} page {page_no}: expected a {wanted}, found a {got}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use crate::value::Value;

    // The fault registry is process-global and `cargo test` runs tests in
    // parallel: every test here that can evict holds
    // `recdb_fault::exclusive()` — otherwise the fault the fail-point test
    // arms at `storage::pool_evict` can fire in whichever test evicts next.

    fn tuple(n: i64) -> Tuple {
        Tuple::new(vec![Value::Int(n), Value::Text(format!("row-{n}"))])
    }

    fn fill_page(n: i64) -> Page {
        let mut p = Page::new();
        p.insert(&tuple(n)).unwrap();
        p
    }

    #[test]
    fn pages_survive_eviction_roundtrip() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(2);
        let f = pool.create_file(FileKind::Heap, "t");
        for n in 0..10 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        assert_eq!(pool.page_count(f), 10);
        assert!(pool.resident_pages() <= 2);
        assert!(pool.evictions() >= 8);
        for n in 0..10u32 {
            let got = pool.with_page(f, n, |p| p.get(0).unwrap()).unwrap();
            assert_eq!(got, tuple(n as i64));
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pool = BufferPool::in_memory(4);
        let f = pool.create_file(FileKind::Heap, "t");
        pool.allocate_page(f, FrameData::Heap(fill_page(0)))
            .unwrap();
        let (h0, m0) = (pool.hits(), pool.misses());
        pool.with_page(f, 0, |_| ()).unwrap();
        assert_eq!(pool.hits(), h0 + 1);
        assert_eq!(pool.misses(), m0);
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(2);
        let f = pool.create_file(FileKind::Heap, "t");
        for n in 0..2 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        pool.pin(f, 0).unwrap();
        assert_eq!(pool.pinned_pages(), 1);
        // Pressure the pool: page 0 must stay resident throughout.
        for n in 2..8 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        let misses_before = pool.misses();
        pool.with_page(f, 0, |_| ()).unwrap();
        assert_eq!(pool.misses(), misses_before, "pinned page was evicted");
        pool.unpin(f, 0);
        assert_eq!(pool.pinned_pages(), 0);
    }

    #[test]
    fn all_pinned_pool_reports_exhaustion() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(2);
        let f = pool.create_file(FileKind::Heap, "t");
        for n in 0..2 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
            pool.pin(f, n as u32).unwrap();
        }
        match pool.allocate_page(f, FrameData::Heap(fill_page(9))) {
            Err(StorageError::PoolExhausted { capacity: 2 }) => {}
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
        pool.unpin(f, 0);
        pool.allocate_page(f, FrameData::Heap(fill_page(9)))
            .unwrap();
    }

    #[test]
    fn spill_to_disk_and_back() {
        let _x = recdb_fault::exclusive();
        let dir = std::env::temp_dir().join(format!("recdb-pool-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let pool = BufferPool::spilling(2, &dir);
        let f = pool.create_file(FileKind::Heap, "ratings");
        for n in 0..6 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        assert!(dir.join("ratings.spill").exists());
        for n in 0..6u32 {
            let got = pool.with_page(f, n, |p| p.get(0).unwrap()).unwrap();
            assert_eq!(got, tuple(n as i64));
        }
        pool.remove_file(f);
        assert!(!dir.join("ratings.spill").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_drops_tail_pages() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(3);
        let f = pool.create_file(FileKind::Heap, "t");
        for n in 0..5 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        pool.truncate_file(f, 2).unwrap();
        assert_eq!(pool.page_count(f), 2);
        assert!(pool.with_page(f, 2, |_| ()).is_err());
        pool.with_page(f, 1, |_| ()).unwrap();
    }

    #[test]
    fn install_page_writes_through() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(2);
        let f = pool.create_file(FileKind::Heap, "t");
        pool.install_page(f, 0, FrameData::Heap(fill_page(7)))
            .unwrap();
        assert_eq!(pool.page_count(f), 1);
        // Force the frame out, then fault it back from backing.
        for n in 1..4 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        let got = pool.with_page(f, 0, |p| p.get(0).unwrap()).unwrap();
        assert_eq!(got, tuple(7));
    }

    #[test]
    fn wal_barrier_runs_before_dirty_writeback() {
        let _x = recdb_fault::exclusive();
        use std::sync::atomic::AtomicUsize;
        let pool = BufferPool::in_memory(2);
        let flushes = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&flushes);
        pool.set_wal_barrier(move || {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        let f = pool.create_file(FileKind::Heap, "t");
        for n in 0..5 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        assert!(flushes.load(Ordering::SeqCst) >= 3, "barrier not invoked");
    }

    #[test]
    fn evict_fail_point_leaves_pool_intact() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(2);
        let f = pool.create_file(FileKind::Heap, "t");
        for n in 0..2 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        recdb_fault::arm_error("storage::pool_evict", 1);
        let err = pool.allocate_page(f, FrameData::Heap(fill_page(2)));
        assert!(matches!(err, Err(StorageError::FaultInjected(_))));
        recdb_fault::clear();
        // The pool still works and the original pages are unharmed.
        pool.allocate_page(f, FrameData::Heap(fill_page(2)))
            .unwrap();
        for n in 0..3u32 {
            let got = pool.with_page(f, n, |p| p.get(0).unwrap()).unwrap();
            assert_eq!(got, tuple(n as i64));
        }
    }
}
