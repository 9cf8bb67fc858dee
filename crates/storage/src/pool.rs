//! The buffer pool: fixed-capacity frames over 8 KiB blocks.
//!
//! Every heap page and B+-tree node in a catalog lives behind one
//! [`BufferPool`]. A *frame* holds the decoded in-memory form of one block
//! (a slotted [`Page`] or a [`Node`]); when the pool is full, a clock
//! (second-chance) sweep evicts a frame, writing it back to its *backing
//! store* first if dirty. The backing store is scratch space — either an
//! in-memory block vector or a spill file under the data directory — and
//! is **never** consulted by recovery, which rebuilds state from the
//! checkpoint plus the WAL. That split keeps the crash-safety story of the
//! checkpoint protocol (generation files + manifest rename) untouched
//! while bounding resident memory. Because no page written there is ever
//! read back across a crash, a write-back never forces the log: every
//! record recovery replays was fsynced by its own commit.
//!
//! # Concurrency
//!
//! One mutex guards all pool state. *Under it*: the residency lookup,
//! victim selection, a dirty victim's encode and write-back, frame
//! installation, and every accessor closure that reads a frame — closures
//! must therefore never re-enter the pool. *Outside it*: a miss's backing
//! read, checksum and decode, and a private read's closure (below). A
//! miss enters `(file, page)` in the **in-flight table**, releases the
//! mutex, reads the block with one positional call, verifies and decodes
//! it (`BufferPool::find`, the one place this happens), then re-locks
//! and leaves the table — to install the frame, or to hand the page to a
//! scan privately. A page in flight is not resident, so:
//!
//! * a second thread that misses it waits on the pool's one condition
//!   variable instead of reading; when it wakes the frame is a hit (or, if
//!   the load failed or was private, it loads the page itself);
//! * no write-back can race the read — only resident frames are written
//!   back, and [`BufferPool::install_page`], [`BufferPool::truncate_file`]
//!   and [`BufferPool::remove_file`] wait out the loads on their file.
//!
//! The in-flight table is the only "do not replace this" state: there are
//! no pins, because a closure holds the mutex for as long as it reads its
//! frame. `misses` counts backing reads performed, installed or private;
//! every other successful access, including one that waited for another
//! thread's read, is a `hit`; a request past the end of a file is
//! neither.
//!
//! # Scan resistance
//!
//! [`BufferPool::scan_page`] is the sequential-scan access. When the file
//! has more pages than the pool has frames, a scan can never find its own
//! pages again — each would be evicted before the scan came back to it —
//! so it **admits nothing**. A resident page is served from its frame as
//! usual, with the clock's reference bit left alone; any other page is a
//! *private read*: read, verified and decoded behind the in-flight table,
//! then handed to the closure with the mutex released and dropped. It is
//! a miss, never an eviction, and two sessions scanning such files can
//! filter their rows at once. Nothing another session touches is
//! displaced.
//! A dirty page is always resident, so a scan reads it from its frame.
//! PostgreSQL reads large sequential scans through a small private ring
//! for the same reason. docs/STORAGE.md has the longer account.
//!
//! Fail points: `storage::pool_read` fires at the top of every backing
//! read and `storage::pool_evict` at the top of every eviction, each
//! before any state changes — an injected error leaves the pool intact.

use crate::btree::node::Node;
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PAGE_SIZE};
use recdb_obs::{Counter, Registry};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, OnceLock, PoisonError};

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
    /// Second-chance bit for the clock sweep.
    referenced: bool,
}

/// How an accessor treats the frame it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    /// Marks the frame dirty.
    Write,
}

/// Where [`BufferPool::find`] found a page.
enum Found {
    /// In this frame slot (a hit).
    Resident(usize),
    /// Nowhere: it was read from the backing store (a miss) and is not
    /// installed yet.
    Read(FrameData),
}

/// Where evicted blocks go.
enum Backing {
    /// Encoded blocks held in memory (default for non-durable engines:
    /// eviction still exercises the full encode/checksum path).
    Memory(Vec<Option<Arc<[u8]>>>),
    /// A spill file on disk; block `n` lives at offset `n * PAGE_SIZE`.
    Disk { file: Arc<File>, path: PathBuf },
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Memory(blocks) => write!(f, "Memory({} blocks)", blocks.len()),
            Backing::Disk { path, .. } => write!(f, "Disk({})", path.display()),
        }
    }
}

/// What a miss carries out of the mutex to read one block: a
/// reference-counted handle, so the read needs no pool state.
enum BlockSource {
    Memory(Arc<[u8]>),
    Disk(Arc<File>),
}

fn block_offset(page_no: u32) -> u64 {
    page_no as u64 * PAGE_SIZE as u64
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
    /// In-flight table: pages some thread is reading from the backing
    /// store with the mutex released. Never also in `map`.
    loading: HashSet<(FileId, u32)>,
    /// Clock hand for the second-chance sweep.
    hand: usize,
    files: HashMap<FileId, FileState>,
    next_file: FileId,
}

type Guard<'a> = MutexGuard<'a, PoolInner>;

struct PoolMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

/// A fixed-capacity buffer pool. See the module docs for the design.
pub struct BufferPool {
    inner: std::sync::Mutex<PoolInner>,
    /// Signalled whenever a page leaves the in-flight table.
    loaded: Condvar,
    capacity: usize,
    spill_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The misses whose page was handed to a scan and dropped rather than
    /// installed (module docs, "Scan resistance").
    private_reads: AtomicU64,
    evictions: AtomicU64,
    metrics: OnceLock<PoolMetrics>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("spill_dir", &self.spill_dir)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("private_reads", &self.private_reads)
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl BufferPool {
    fn with_capacity(capacity: usize, spill_dir: Option<PathBuf>) -> Self {
        BufferPool {
            inner: std::sync::Mutex::new(PoolInner::default()),
            loaded: Condvar::new(),
            // A pool smaller than 2 frames cannot even run a leaf split
            // (old + new node resident); clamp rather than error.
            capacity: capacity.max(2),
            spill_dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            private_reads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            metrics: OnceLock::new(),
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

    /// Register the pool's counters with a metrics registry. May be called
    /// once; later calls are ignored. Counts accumulated before attachment
    /// are carried over.
    pub fn attach_metrics(&self, registry: &Registry) {
        let m = PoolMetrics {
            hits: registry.counter("recdb_buffer_pool_hits_total"),
            misses: registry.counter("recdb_buffer_pool_misses_total"),
            evictions: registry.counter("recdb_pages_evicted_total"),
        };
        m.hits.add(self.hits());
        m.misses.add(self.misses());
        m.evictions.add(self.evictions());
        let _ = self.metrics.set(m);
    }

    /// Accesses served from a resident frame, counting those that waited
    /// for another thread's read of the same block.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Backing-store reads performed (one per block faulted in or read
    /// privately).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of frames currently resident.
    pub fn resident_pages(&self) -> usize {
        self.lock().map.len()
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

    /// Lock the pool state. Like every other lock in the engine the mutex
    /// does not poison: a panicking accessor closure leaves the pool's own
    /// structures consistent (it can only have touched its frame's data).
    fn lock(&self) -> Guard<'_> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Release the mutex until some page leaves the in-flight table.
    fn wait<'a>(&self, inner: Guard<'a>) -> Guard<'a> {
        self.loaded
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the pool once no read of `file`'s backing store is in flight —
    /// what every operation that rewrites or drops backing blocks takes.
    fn lock_file(&self, file: FileId) -> Guard<'_> {
        let mut inner = self.lock();
        while inner.loading.iter().any(|(f, _)| *f == file) {
            inner = self.wait(inner);
        }
        inner
    }

    /// Register a new, empty paged file. `label` names it in corruption
    /// errors (conventionally the table or index name).
    pub fn create_file(&self, kind: FileKind, label: &str) -> FileId {
        let mut inner = self.lock();
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
        let mut inner = self.lock_file(file);
        Self::drop_file_frames(&mut inner, file, 0);
        if let Some(state) = inner.files.remove(&file) {
            if let Backing::Disk { path, .. } = state.backing {
                let _ = fs::remove_file(path);
            }
        }
    }

    /// Number of pages in `file`.
    pub fn page_count(&self, file: FileId) -> u32 {
        self.lock().files.get(&file).map_or(0, |s| s.page_count)
    }

    /// Append a fresh page to `file`, returning its page number. The new
    /// frame starts dirty (it exists nowhere else yet).
    pub fn allocate_page(&self, file: FileId, data: FrameData) -> StorageResult<u32> {
        let mut inner = self.lock();
        let state = file_state(&inner, file)?;
        debug_assert_eq!(state.kind, data.kind());
        let page_no = state.page_count;
        let slot = self.ensure_slot(&mut inner)?;
        inner.frames[slot] = Some(Frame {
            key: (file, page_no),
            data,
            dirty: true,
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
        let mut inner = self.lock_file(file);
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
        let state = file_state_mut(&mut inner, file)?;
        state.page_count = state.page_count.max(page_no + 1);
        Self::write_backing(state, (file, page_no), &block, self.spill_dir.as_deref())?;
        Ok(())
    }

    /// Shrink `file` to its first `keep` pages, dropping frames and
    /// backing blocks past the cut.
    pub fn truncate_file(&self, file: FileId, keep: u32) -> StorageResult<()> {
        let mut inner = self.lock_file(file);
        let state = file_state(&inner, file)?;
        if state.page_count <= keep {
            return Ok(());
        }
        Self::drop_file_frames(&mut inner, file, keep);
        let state = file_state_mut(&mut inner, file)?;
        state.page_count = keep;
        match &mut state.backing {
            Backing::Memory(blocks) => blocks.truncate(keep as usize),
            Backing::Disk { file, .. } => {
                file.set_len(block_offset(keep))
                    .map_err(|e| StorageError::io("truncate spill file", e))?;
            }
        }
        Ok(())
    }

    /// Read access to a heap page. The closure runs with the pool locked:
    /// it must not call back into the pool.
    pub fn with_page<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&Page) -> R,
    ) -> StorageResult<R> {
        let f = heap_page(file, page_no, f);
        self.with_frame(self.lock(), file, page_no, Access::Read, f)
    }

    /// Read access to a heap page on behalf of a sequential scan of
    /// `file`: `Ok(None)` past the end of the file, and — when the file
    /// has more pages than the pool has frames — nothing is admitted: a
    /// resident page is read from its frame without setting its reference
    /// bit, any other is read privately and the closure runs on it with
    /// the mutex released (module docs, "Scan resistance"). The threshold
    /// follows from [`BufferPool::capacity`] and is not a setting. Same
    /// closure rules as [`BufferPool::with_page`].
    pub fn scan_page<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&Page) -> R,
    ) -> StorageResult<Option<R>> {
        let inner = self.lock();
        let pages = inner.files.get(&file).map_or(0, |s| s.page_count);
        if page_no >= pages {
            return Ok(None);
        }
        let f = heap_page(file, page_no, f);
        if pages as usize <= self.capacity {
            return self
                .with_frame(inner, file, page_no, Access::Read, f)
                .map(Some);
        }
        match self.find(inner, file, page_no)? {
            (mut inner, Found::Resident(slot)) => f(&mut frame(&mut inner, slot)?.data),
            (inner, Found::Read(mut data)) => {
                drop(inner);
                self.private_reads.fetch_add(1, Ordering::Relaxed);
                f(&mut data)
            }
        }
        .map(Some)
    }

    /// Write access to a heap page; marks the frame dirty. Same closure
    /// rules as [`BufferPool::with_page`].
    pub fn with_page_mut<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        let f = |data: &mut FrameData| match data {
            FrameData::Heap(p) => Ok(f(p)),
            FrameData::Node(_) => Err(kind_mismatch(file, page_no, "heap page", "index node")),
        };
        self.with_frame(self.lock(), file, page_no, Access::Write, f)
    }

    /// Read access to a B+-tree node. Same closure rules as
    /// [`BufferPool::with_page`].
    pub fn with_node<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&Node) -> R,
    ) -> StorageResult<R> {
        let f = |data: &mut FrameData| match data {
            FrameData::Node(n) => Ok(f(n)),
            FrameData::Heap(_) => Err(kind_mismatch(file, page_no, "index node", "heap page")),
        };
        self.with_frame(self.lock(), file, page_no, Access::Read, f)
    }

    /// Write access to a B+-tree node; marks the frame dirty.
    pub fn with_node_mut<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Node) -> R,
    ) -> StorageResult<R> {
        let f = |data: &mut FrameData| match data {
            FrameData::Node(n) => Ok(f(n)),
            FrameData::Heap(_) => Err(kind_mismatch(file, page_no, "index node", "heap page")),
        };
        self.with_frame(self.lock(), file, page_no, Access::Write, f)
    }

    /// Make `(file, page_no)` resident and run the closure on its frame
    /// under the pool lock.
    fn with_frame<R>(
        &self,
        inner: Guard<'_>,
        file: FileId,
        page_no: u32,
        access: Access,
        f: impl FnOnce(&mut FrameData) -> StorageResult<R>,
    ) -> StorageResult<R> {
        let (mut inner, slot) = match self.find(inner, file, page_no)? {
            (inner, Found::Resident(slot)) => (inner, slot),
            (mut inner, Found::Read(data)) => {
                let slot = self.ensure_slot(&mut inner)?;
                let key = (file, page_no);
                inner.frames[slot] = Some(Frame {
                    key,
                    data,
                    dirty: false,
                    referenced: true,
                });
                inner.map.insert(key, slot);
                (inner, slot)
            }
        };
        let frame = frame(&mut inner, slot)?;
        frame.referenced = true;
        frame.dirty |= access == Access::Write;
        f(&mut frame.data)
    }

    /// Find `(file, page_no)` in a frame — a hit, after waiting out
    /// another thread's read of it if need be — or read it from the
    /// backing store: a miss enters the page in the in-flight table and
    /// releases the mutex while the block is read, verified and decoded
    /// (module docs, "Concurrency"). The page has left the in-flight table
    /// again when this returns, whether the read succeeded or not.
    fn find<'a>(
        &'a self,
        mut inner: Guard<'a>,
        file: FileId,
        page_no: u32,
    ) -> StorageResult<(Guard<'a>, Found)> {
        let key = (file, page_no);
        loop {
            if let Some(&slot) = inner.map.get(&key) {
                self.record_hit();
                return Ok((inner, Found::Resident(slot)));
            }
            if !inner.loading.contains(&key) {
                break;
            }
            inner = self.wait(inner);
        }
        let state = file_state(&inner, file)?;
        if page_no >= state.page_count {
            return Err(StorageError::InvalidRid {
                page: page_no,
                slot: 0,
            });
        }
        recdb_fault::fail_point("storage::pool_read")?;
        let kind = state.kind;
        let source = Self::block_source(state, page_no)?;
        inner.loading.insert(key);
        drop(inner);

        self.record_miss();
        let mut buf = [0u8; PAGE_SIZE];
        let block: StorageResult<&[u8]> = match &source {
            BlockSource::Memory(block) => Ok(block),
            BlockSource::Disk(file) => file
                .read_exact_at(&mut buf, block_offset(page_no))
                .map(|()| &buf[..])
                .map_err(|e| StorageError::io("read spill file", e)),
        };
        let decode = |label: &str| FrameData::decode(kind, block.clone()?, label, page_no);
        let decoded = decode("");

        let mut inner = self.lock();
        inner.loading.remove(&key);
        self.loaded.notify_all();
        match decoded {
            Ok(data) => Ok((inner, Found::Read(data))),
            // Only a bad block needs the file's name: decode it again to
            // say it. (`lock_file` kept the file alive through the read.)
            Err(e) => Err(decode(&file_state(&inner, file)?.label).err().unwrap_or(e)),
        }
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
        let victim = Self::find_victim(inner);
        self.evict_slot(inner, victim)?;
        Ok(victim)
    }

    /// Clock (second-chance) sweep: clear reference bits, take the first
    /// unreferenced frame — found within two sweeps, since the first
    /// clears every bit it passes.
    fn find_victim(inner: &mut PoolInner) -> usize {
        loop {
            let i = inner.hand;
            inner.hand = (i + 1) % inner.frames.len();
            match inner.frames[i].as_mut() {
                Some(f) if f.referenced => f.referenced = false,
                _ => return i,
            }
        }
    }

    /// Evict the frame in `slot`: write the block back if dirty, then free
    /// the slot. On error the frame is left untouched.
    fn evict_slot(&self, inner: &mut PoolInner, slot: usize) -> StorageResult<()> {
        recdb_fault::fail_point("storage::pool_evict")?;
        let (key, block) = match inner.frames[slot].as_ref() {
            Some(f) => (f.key, f.dirty.then(|| f.data.encode())),
            None => return Ok(()),
        };
        if let Some(block) = block {
            let state = file_state_mut(inner, key.0)?;
            Self::write_backing(state, key, &block, self.spill_dir.as_deref())?;
        }
        inner.frames[slot] = None;
        inner.map.remove(&key);
        self.record_eviction();
        Ok(())
    }

    /// Drop every resident frame of `file` with page number `>= from`,
    /// without write-back (the pages are being discarded).
    fn drop_file_frames(inner: &mut PoolInner, file: FileId, from: u32) {
        let doomed: Vec<(FileId, u32)> = inner
            .map
            .keys()
            .filter(|(f, p)| *f == file && *p >= from)
            .copied()
            .collect();
        for key in doomed {
            if let Some(slot) = inner.map.remove(&key) {
                inner.frames[slot] = None;
                inner.free.push(slot);
            }
        }
    }

    fn write_backing(
        state: &mut FileState,
        (id, page_no): (FileId, u32),
        block: &[u8],
        spill_dir: Option<&std::path::Path>,
    ) -> StorageResult<()> {
        let write = |file: &File, n: u32, block: &[u8]| {
            file.write_all_at(block, block_offset(n))
                .map_err(|e| StorageError::io("write spill file", e))
        };
        // First spill of a file in a disk-backed pool upgrades its backing
        // from the (empty-or-small) memory vector to a spill file, named
        // by file id as well: two live files may share a label (a dropped
        // table a transaction keeps for undo, and its re-created namesake).
        if let (Backing::Memory(blocks), Some(dir)) = (&state.backing, spill_dir) {
            fs::create_dir_all(dir).map_err(|e| StorageError::io("create spill dir", e))?;
            let path = dir.join(format!("{}.{id}.spill", state.label));
            let file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|e| StorageError::io("create spill file", e))?;
            for (n, b) in blocks.iter().enumerate() {
                if let Some(b) = b {
                    write(&file, n as u32, b)?;
                }
            }
            state.backing = Backing::Disk {
                file: Arc::new(file),
                path,
            };
        }
        match &mut state.backing {
            Backing::Memory(blocks) => {
                let n = page_no as usize;
                if blocks.len() <= n {
                    blocks.resize_with(n + 1, || None);
                }
                blocks[n] = Some(block.into());
                Ok(())
            }
            Backing::Disk { file, .. } => write(file, page_no, block),
        }
    }

    /// A handle on page `page_no`'s backing block that can be read with
    /// the mutex released.
    fn block_source(state: &FileState, page_no: u32) -> StorageResult<BlockSource> {
        match &state.backing {
            Backing::Memory(blocks) => blocks
                .get(page_no as usize)
                .and_then(|b| b.as_ref())
                .map(|b| BlockSource::Memory(Arc::clone(b)))
                .ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "pool file `{}` page {page_no} has no backing block",
                        state.label
                    ))
                }),
            Backing::Disk { file, .. } => Ok(BlockSource::Disk(Arc::clone(file))),
        }
    }
}

fn file_state(inner: &PoolInner, file: FileId) -> StorageResult<&FileState> {
    inner
        .files
        .get(&file)
        .ok_or_else(|| StorageError::Corrupt(format!("unknown pool file {file}")))
}

fn file_state_mut(inner: &mut PoolInner, file: FileId) -> StorageResult<&mut FileState> {
    inner
        .files
        .get_mut(&file)
        .ok_or_else(|| StorageError::Corrupt(format!("unknown pool file {file}")))
}

fn frame(inner: &mut PoolInner, slot: usize) -> StorageResult<&mut Frame> {
    inner.frames[slot]
        .as_mut()
        .ok_or_else(|| StorageError::Corrupt("fetched frame slot is empty".into()))
}

/// Adapt a heap-page reader to the frame accessor.
fn heap_page<R>(
    file: FileId,
    page_no: u32,
    f: impl FnOnce(&Page) -> R,
) -> impl FnOnce(&mut FrameData) -> StorageResult<R> {
    move |data| match data {
        FrameData::Heap(p) => Ok(f(p)),
        FrameData::Node(_) => Err(kind_mismatch(file, page_no, "heap page", "index node")),
    }
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
    // parallel: every test here that can evict or miss holds
    // `recdb_fault::exclusive()` — otherwise a fault the fail-point tests
    // arm at `storage::pool_evict` or `storage::pool_read` can fire in
    // whichever test evicts or reads next.

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
    fn a_request_past_the_end_is_neither_a_hit_nor_a_miss() {
        let pool = BufferPool::in_memory(4);
        let f = pool.create_file(FileKind::Heap, "t");
        pool.allocate_page(f, FrameData::Heap(fill_page(0)))
            .unwrap();
        let before = (pool.hits(), pool.misses());
        assert!(matches!(
            pool.with_page(f, 1, |_| ()),
            Err(StorageError::InvalidRid { page: 1, slot: 0 })
        ));
        assert_eq!(pool.scan_page(f, 1, |_| ()).unwrap(), None);
        assert_eq!((pool.hits(), pool.misses()), before);
    }

    /// A thread that misses a page another thread is already reading
    /// waits for that read instead of issuing its own. The in-flight entry
    /// is planted by hand (this thread plays the loader), so the waiter
    /// cannot get past it until the frame is installed — whichever side
    /// gets there first, it ends as one hit and no backing read.
    #[test]
    fn a_second_miss_on_a_page_in_flight_waits_for_the_first_read() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(2);
        let f = pool.create_file(FileKind::Heap, "t");
        for n in 0..4 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        let key = (f, 0);
        {
            let mut inner = pool.lock();
            assert!(!inner.map.contains_key(&key), "page 0 was evicted");
            inner.loading.insert(key);
        }
        let before = (pool.hits(), pool.misses());
        let (arrived_tx, arrived_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                arrived_tx.send(()).unwrap();
                pool.with_page(f, 0, |p| p.get(0).unwrap()).unwrap()
            });
            arrived_rx.recv().unwrap();
            // Anything that rewrites the file's blocks also waits.
            let installer = s.spawn(|| {
                pool.install_page(f, 3, FrameData::Heap(fill_page(33)))
                    .unwrap()
            });
            // Finish "the read": install the frame, leave the table, wake
            // everyone.
            let mut inner = pool.lock();
            assert_eq!(pool.misses(), before.1, "nobody read page 0 meanwhile");
            let slot = pool.ensure_slot(&mut inner).unwrap();
            inner.frames[slot] = Some(Frame {
                key,
                data: FrameData::Heap(fill_page(0)),
                dirty: false,
                referenced: true,
            });
            inner.map.insert(key, slot);
            inner.loading.remove(&key);
            pool.loaded.notify_all();
            drop(inner);
            assert_eq!(waiter.join().unwrap(), tuple(0));
            installer.join().unwrap();
        });
        assert_eq!((pool.hits(), pool.misses()), (before.0 + 1, before.1));
        let got = pool.with_page(f, 3, |p| p.get(0).unwrap()).unwrap();
        assert_eq!(got, tuple(33));
    }

    fn private_reads(pool: &BufferPool) -> u64 {
        pool.private_reads.load(Ordering::Relaxed)
    }

    /// Every resident page with its clock reference bit, in key order.
    fn residency(pool: &BufferPool) -> Vec<((FileId, u32), bool)> {
        let inner = pool.lock();
        let mut frames: Vec<_> = inner
            .frames
            .iter()
            .flatten()
            .map(|f| (f.key, f.referenced))
            .collect();
        frames.sort();
        frames
    }

    /// Scan resistance: a full scan of a heap 8x the pool leaves the same
    /// pages resident with the same reference bits. It evicts nothing,
    /// reads each page that is not resident once, privately, and serves
    /// the resident ones — a dirty one included — from their frames. A
    /// heap that fits in the pool is admitted like any other access.
    #[test]
    fn a_scan_larger_than_the_pool_admits_nothing() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(16);
        let small = pool.create_file(FileKind::Heap, "small");
        for n in 0..4 {
            pool.allocate_page(small, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        let idx = pool.create_file(FileKind::Index, "idx");
        for _ in 0..6 {
            pool.allocate_page(idx, FrameData::Node(Node::leaf()))
                .unwrap();
        }
        let big = pool.create_file(FileKind::Heap, "big");
        for n in 0..128 {
            pool.allocate_page(big, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        // Loading `big` flooded the pool: fault the index back in, and
        // page 40 of `big`, which gains a row its backing block lacks.
        for n in 0..6 {
            pool.with_node(idx, n, |_| ()).unwrap();
        }
        pool.with_page_mut(big, 40, |p| p.insert(&tuple(-40)))
            .unwrap()
            .unwrap();
        let before = residency(&pool);
        assert!(before.contains(&((big, 40), true)));
        let resident_big = before.iter().filter(|(k, _)| k.0 == big).count() as u64;
        let (h0, m0, p0, e0) = (
            pool.hits(),
            pool.misses(),
            private_reads(&pool),
            pool.evictions(),
        );
        for n in 0..128u32 {
            let rows = pool
                .scan_page(big, n, |p| {
                    p.iter_live().map(|(_, t)| t).collect::<Vec<_>>()
                })
                .unwrap()
                .unwrap();
            let mut want = vec![tuple(n as i64)];
            if n == 40 {
                want.push(tuple(-40));
            }
            assert_eq!(rows, want, "page {n}");
        }
        assert_eq!(residency(&pool), before, "the scan changed the pool");
        assert_eq!(pool.evictions(), e0);
        assert_eq!(pool.misses() - m0, 128 - resident_big);
        assert_eq!(private_reads(&pool) - p0, 128 - resident_big);
        assert_eq!(pool.hits() - h0, resident_big);
        // `small` (4 pages) fits: its scan installs frames, bits set.
        assert!(!before.iter().any(|(k, _)| k.0 == small));
        for n in 0..4 {
            assert!(pool.scan_page(small, n, |_| ()).unwrap().is_some());
        }
        assert_eq!(private_reads(&pool) - p0, 128 - resident_big);
        for n in 0..4 {
            assert!(residency(&pool).contains(&((small, n), true)));
        }
    }

    /// An injected read error leaves the pool as it was: nothing in
    /// flight, the same pages resident, no miss counted — for a private
    /// read and for a read that would install — and the retry reads.
    #[test]
    fn a_failed_read_leaves_the_pool_as_it_was() {
        let _x = recdb_fault::exclusive();
        let pool = BufferPool::in_memory(2);
        let f = pool.create_file(FileKind::Heap, "t");
        for n in 0..8 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        let before = (residency(&pool), pool.misses(), pool.evictions());
        recdb_fault::arm_error("storage::pool_read", 1);
        let err = pool.scan_page(f, 0, |_| ());
        assert!(
            matches!(err, Err(StorageError::FaultInjected(_))),
            "{err:?}"
        );
        recdb_fault::arm_error("storage::pool_read", 1);
        let err = pool.with_page(f, 1, |_| ());
        assert!(
            matches!(err, Err(StorageError::FaultInjected(_))),
            "{err:?}"
        );
        recdb_fault::clear();
        assert!(pool.lock().loading.is_empty());
        assert_eq!((residency(&pool), pool.misses(), pool.evictions()), before);
        let got = pool.scan_page(f, 0, |p| p.get(0).unwrap()).unwrap();
        assert_eq!(got, Some(tuple(0)));
    }

    /// Readers and a writer over pools a fraction of the data's size.
    /// Page `n` holds rows `(n, 0), (n, 1), …` — the writer appends the
    /// next one — so any block that was torn, read while being written
    /// back, or installed stale shows as a wrong id, a gap, or a page
    /// that went backwards. The file (32 pages) is larger than the pools
    /// (4 frames), so every scan read that misses is a private read; one
    /// reader does nothing but scan the file from end to end while the
    /// writer dirties its pages. Seeded by `RECDB_FAULT_SEED` (CI sweeps
    /// it).
    #[test]
    fn pool_stress_readers_and_a_writer_see_every_page_whole() {
        use std::sync::atomic::AtomicUsize;
        const PAGES: u32 = 32;
        const READERS: u64 = 4;
        const READS: usize = 3_000;
        const SCANS: usize = 60;
        const WRITES: usize = 1_200;
        let _x = recdb_fault::exclusive();
        let seed: u64 = std::env::var("RECDB_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        let dir = std::env::temp_dir().join(format!("recdb-pool-stress-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let row = |n: u32, v: i64| Tuple::new(vec![Value::Int(n as i64), Value::Int(v)]);
        let check = move |n: u32| {
            move |p: &Page| {
                let rows: Vec<Tuple> = p.iter_live().map(|(_, t)| t).collect();
                for (v, t) in rows.iter().enumerate() {
                    assert_eq!(t, &row(n, v as i64), "page {n}");
                }
                rows.len()
            }
        };
        // xorshift64*: page picks with a hot window, so threads collide.
        let next = |state: &mut u64| {
            *state ^= *state >> 12;
            *state ^= *state << 25;
            *state ^= *state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let pick = move |state: &mut u64| {
            let r = next(state);
            if r & 1 == 0 {
                (r >> 8) as u32 % 3
            } else {
                (r >> 8) as u32 % PAGES
            }
        };
        for pool in [BufferPool::spilling(4, &dir), BufferPool::in_memory(4)] {
            let f = pool.create_file(FileKind::Heap, "stress");
            for n in 0..PAGES {
                let mut page = Page::new();
                page.insert(&row(n, 0)).unwrap();
                pool.allocate_page(f, FrameData::Heap(page)).unwrap();
            }
            let before = pool.hits() + pool.misses();
            let accesses = AtomicUsize::new(0);
            let mut written = vec![1usize; PAGES as usize];
            std::thread::scope(|s| {
                for r in 0..READERS {
                    let (pool, accesses) = (&pool, &accesses);
                    s.spawn(move || {
                        let mut state = seed.wrapping_mul(r + 2) | 1;
                        let mut seen = vec![0usize; PAGES as usize];
                        for i in 0..READS {
                            let n = pick(&mut state);
                            // Half the reads go through the scan entry.
                            let rows = if i % 2 == 0 {
                                pool.with_page(f, n, check(n)).unwrap()
                            } else {
                                pool.scan_page(f, n, check(n)).unwrap().unwrap()
                            };
                            accesses.fetch_add(1, Ordering::Relaxed);
                            assert!(rows >= seen[n as usize], "page {n} went backwards");
                            seen[n as usize] = rows;
                        }
                    });
                }
                let (pool, accesses) = (&pool, &accesses);
                s.spawn(move || {
                    let mut seen = vec![0usize; PAGES as usize];
                    for _ in 0..SCANS {
                        for n in 0..PAGES {
                            let rows = pool.scan_page(f, n, check(n)).unwrap().unwrap();
                            accesses.fetch_add(1, Ordering::Relaxed);
                            assert!(rows >= seen[n as usize], "page {n} went backwards");
                            seen[n as usize] = rows;
                        }
                    }
                });
                let mut state = seed | 1;
                for _ in 0..WRITES {
                    let n = pick(&mut state);
                    let v = written[n as usize] as i64;
                    pool.with_page_mut(f, n, |p| p.insert(&row(n, v)))
                        .unwrap()
                        .unwrap();
                    accesses.fetch_add(1, Ordering::Relaxed);
                    written[n as usize] += 1;
                }
            });
            for n in 0..PAGES {
                let rows = pool.with_page(f, n, |p| p.live_count()).unwrap();
                assert_eq!(rows, written[n as usize], "page {n} lost a write-back");
            }
            // Every access is one hit or one miss, and every miss is one
            // backing read that either installed one frame or was a
            // private read that installed none:
            //   misses == installed misses + private reads,
            //   allocations + installed misses == evictions + resident.
            // Two reads of one block, or a private read that left a frame
            // behind, would break it.
            assert_eq!(
                pool.hits() + pool.misses() - before,
                (accesses.into_inner() + PAGES as usize) as u64
            );
            assert!(pool.lock().loading.is_empty());
            let installed = pool.misses() - private_reads(&pool);
            assert_eq!(
                PAGES as u64 + installed,
                pool.evictions() + pool.resident_pages() as u64
            );
            assert!(installed > PAGES as u64, "the pool did fault pages in");
            assert!(private_reads(&pool) > PAGES as u64, "scans read privately");
            pool.remove_file(f);
        }
        let _ = fs::remove_dir_all(&dir);
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
        let spill = dir.join(format!("ratings.{f}.spill"));
        assert!(spill.exists());
        for n in 0..6u32 {
            let got = pool.with_page(f, n, |p| p.get(0).unwrap()).unwrap();
            assert_eq!(got, tuple(n as i64));
        }
        pool.remove_file(f);
        assert!(!spill.exists());
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
