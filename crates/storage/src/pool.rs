//! The buffer pool: fixed-capacity frames over 8 KiB blocks.
//!
//! Every heap page and B+-tree node in a catalog lives behind one
//! [`BufferPool`]. A *frame* holds the decoded in-memory form of one block
//! (a slotted [`Page`] or a [`Node`]); when the pool is full, a clock
//! (second-chance) sweep evicts a frame, writing it back to its file's
//! *backing store* first if dirty. The backing store is scratch space,
//! chosen when the file is made and never changed: a spill file under the
//! data directory in a spilling pool (created at the file's first
//! write-back), an in-memory block vector in any other. It is **never**
//! consulted by recovery, which rebuilds state from the checkpoint plus
//! the WAL. That split keeps the crash-safety story of the checkpoint
//! protocol (generation files + manifest rename) untouched while bounding
//! resident memory. Because no page written there is ever read back
//! across a crash, a write-back never forces the log: every record
//! recovery replays was fsynced by its own commit.
//!
//! # Concurrency
//!
//! One mutex guards all pool state. *Under it*: the residency lookup,
//! victim selection, a dirty victim's encode and write-back, frame
//! installation, and every accessor closure that reads a frame — closures
//! must therefore never re-enter the pool. *Outside it*: a miss's backing
//! read, checksum and decode, and a private read's closure (below). Every
//! miss takes one path (`BufferPool::read_absent`, the one place a backing
//! store is read): it enters its absent pages `[first, end)` in the
//! **in-flight table**, releases the mutex, reads their blocks with one
//! backing read, then re-locks, takes them out of the table and wakes any
//! waiters. A single page is a run of one (`BufferPool::find`): its block
//! is verified and decoded before the re-lock, and its frame installed in
//! the same critical section in which it leaves the table; a scan's pages
//! leave the table first and are visited privately after. A page in
//! flight is not resident, so:
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
//! frame. `misses` counts blocks read from the backing store, installed or
//! private; every other successful access, including one that waited for
//! another thread's read, is a `hit`; a request past the end of a file is
//! neither. `backing_reads` counts the reads themselves: one per miss of
//! a single page or of a scan's run (below). Each of these counters is one
//! cell, which [`BufferPool::attach_metrics`] registers as it is.
//!
//! # Scan resistance
//!
//! [`BufferPool::scan_run`] is the sequential-scan access: it visits the
//! pages of a file a *run* at a time, up to [`SCAN_RUN`] pages. When the
//! file has more pages than the pool has frames, a scan can never find its
//! own pages again — each would be evicted before the scan came back to
//! it — so it **admits nothing**. One mutex round trip classifies the
//! run's pages in order: a resident page (clean or dirty) is served from
//! its frame as usual, with the clock's reference bit left alone; a page
//! another thread is reading ends the run (the next run waits for it); and
//! the absent pages after the resident ones are *private reads*: they go
//! through the miss path together — one backing read into the scan's
//! [`ScanBuffer`], a spill file's with one positional call, a memory
//! backing's by copying its blocks — and are then verified and visited in
//! place ([`PageView::from_block`]) with the mutex released — no frame,
//! no decoded [`Page`]. Each is a miss, never an eviction, and two
//! sessions scanning such files can filter their rows at once. Nothing
//! another session touches is displaced. A dirty page is always resident,
//! so a scan reads it from its frame. PostgreSQL reads large sequential
//! scans through a 256 KiB private ring, and merges adjacent blocks into
//! one read, for the same reasons. A file that fits in the pool is
//! scanned a page at a time through the ordinary admitting path.
//! docs/STORAGE.md has the longer account.
//!
//! Fail points: `storage::pool_read` fires once per block before it is
//! read (for a run, once per absent page in page order, so a fault at
//! page k ends the run there, after the pages before k are visited) and
//! `storage::pool_evict` at the top of every eviction, each before any
//! state changes — an injected error leaves the pool intact.

use crate::btree::node::Node;
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageView, PAGE_SIZE};
use recdb_obs::{Counter, Registry};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Identifies one paged file (a heap or an index) within a pool.
pub type FileId = u32;

/// The most pages [`BufferPool::scan_run`] visits in one run, and reads
/// with one backing read: 256 KiB, the size of PostgreSQL's bulk-read
/// ring.
pub const SCAN_RUN: u32 = 32;

/// Scratch a sequential scan reads its runs into ([`BufferPool::scan_run`]),
/// kept from run to run so that a scan allocates it once.
#[derive(Default)]
pub struct ScanBuffer {
    bytes: Vec<u8>,
}

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

/// Where a file's evicted blocks go, fixed by [`BufferPool::create_file`].
/// A miss reads it through an `Arc` with the pool mutex released; the
/// pool writes it only under the mutex, and only blocks no miss has in
/// flight.
enum Backing {
    /// Encoded blocks held in memory (non-spilling pools: eviction still
    /// exercises the full encode/checksum path).
    Memory(Mutex<Vec<Option<Box<[u8]>>>>),
    /// A spill file, created at the file's first write-back and deleted
    /// with its backing; block `n` lives at offset `n * PAGE_SIZE`.
    Disk { path: PathBuf, file: OnceLock<File> },
}

impl Backing {
    /// Fill `buf` with the blocks of pages `first..`, one per
    /// [`PAGE_SIZE`] bytes.
    fn read_into(&self, first: u32, buf: &mut [u8]) -> StorageResult<()> {
        let missing = |n: u32| StorageError::Corrupt(format!("pool page {n} has no backing block"));
        match self {
            Backing::Memory(blocks) => {
                let blocks = blocks.lock().unwrap_or_else(PoisonError::into_inner);
                for (n, block) in (first..).zip(buf.chunks_exact_mut(PAGE_SIZE)) {
                    let stored = blocks.get(n as usize).and_then(Option::as_deref);
                    block.copy_from_slice(stored.ok_or_else(|| missing(n))?);
                }
                Ok(())
            }
            Backing::Disk { file, .. } => file
                .get()
                .ok_or_else(|| missing(first))?
                .read_exact_at(buf, block_offset(first))
                .map_err(|e| StorageError::io("read spill file", e)),
        }
    }

    /// Store page `page_no`'s block, creating the spill file at the first
    /// write.
    fn write(&self, page_no: u32, block: &[u8]) -> StorageResult<()> {
        let (path, file) = match self {
            Backing::Memory(blocks) => {
                let mut blocks = blocks.lock().unwrap_or_else(PoisonError::into_inner);
                let n = page_no as usize;
                if blocks.len() <= n {
                    blocks.resize_with(n + 1, || None);
                }
                blocks[n] = Some(block.into());
                return Ok(());
            }
            Backing::Disk { path, file } => (path, file),
        };
        let file = match file.get() {
            Some(file) => file,
            None => {
                if let Some(dir) = path.parent() {
                    fs::create_dir_all(dir).map_err(|e| StorageError::io("create spill dir", e))?;
                }
                let created = OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .read(true)
                    .write(true)
                    .open(path)
                    .map_err(|e| StorageError::io("create spill file", e))?;
                file.get_or_init(|| created)
            }
        };
        file.write_all_at(block, block_offset(page_no))
            .map_err(|e| StorageError::io("write spill file", e))
    }

    /// Drop the blocks of pages `keep..`.
    fn truncate(&self, keep: u32) -> StorageResult<()> {
        match self {
            Backing::Memory(blocks) => {
                blocks
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .truncate(keep as usize);
                Ok(())
            }
            Backing::Disk { file, .. } => file
                .get()
                .map_or(Ok(()), |f| f.set_len(block_offset(keep)))
                .map_err(|e| StorageError::io("truncate spill file", e)),
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        if let Backing::Disk { path, file } = self {
            if file.get().is_some() {
                let _ = fs::remove_file(path);
            }
        }
    }
}

fn block_offset(page_no: u32) -> u64 {
    page_no as u64 * PAGE_SIZE as u64
}

struct FileState {
    kind: FileKind,
    /// Human-readable label used in corruption errors (e.g. `ratings`).
    label: String,
    backing: Arc<Backing>,
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

/// A fixed-capacity buffer pool. See the module docs for the design.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    /// Signalled whenever a page leaves the in-flight table.
    loaded: Condvar,
    capacity: usize,
    spill_dir: Option<PathBuf>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    backing_reads: Arc<Counter>,
    evictions: Arc<Counter>,
    /// The misses whose page was handed to a scan and dropped rather than
    /// installed (module docs, "Scan resistance").
    private_reads: Counter,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("spill_dir", &self.spill_dir)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("backing_reads", &self.backing_reads())
            .field("private_reads", &self.private_reads.get())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl BufferPool {
    fn with_capacity(capacity: usize, spill_dir: Option<PathBuf>) -> Self {
        BufferPool {
            inner: Mutex::new(PoolInner::default()),
            loaded: Condvar::new(),
            // A pool smaller than 2 frames cannot even run a leaf split
            // (old + new node resident); clamp rather than error.
            capacity: capacity.max(2),
            spill_dir,
            hits: Arc::default(),
            misses: Arc::default(),
            backing_reads: Arc::default(),
            evictions: Arc::default(),
            private_reads: Counter::default(),
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

    /// A bounded pool whose files spill evicted blocks to files under
    /// `dir`, each created at its file's first write-back. The spill files
    /// are scratch: recovery never reads them.
    pub fn spilling(capacity: usize, dir: impl Into<PathBuf>) -> Self {
        BufferPool::with_capacity(capacity, Some(dir.into()))
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Register the pool's counters with a metrics registry: the registry
    /// renders the pool's own cells, so the counts taken before this call
    /// (during recovery) are in them.
    pub fn attach_metrics(&self, registry: &Registry) {
        for (name, cell) in [
            ("recdb_buffer_pool_hits_total", &self.hits),
            ("recdb_buffer_pool_misses_total", &self.misses),
            ("recdb_buffer_pool_backing_reads_total", &self.backing_reads),
            ("recdb_pages_evicted_total", &self.evictions),
        ] {
            registry.register_counter(name, Arc::clone(cell));
        }
    }

    /// Accesses served from a resident frame, counting those that waited
    /// for another thread's read of the same block.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Blocks read from the backing store (one per page faulted in or
    /// read privately).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Reads issued to the backing store: one per single-page miss, one
    /// per run of pages a scan reads at once. `misses / backing_reads` is
    /// the pages per read.
    pub fn backing_reads(&self) -> u64 {
        self.backing_reads.get()
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Number of frames currently resident.
    pub fn resident_pages(&self) -> usize {
        self.lock().map.len()
    }

    /// Every resident page as `((file, page), clock reference bit)`, in
    /// key order: what a check that an operation left the pool as it was
    /// compares before and after.
    pub fn resident_frames(&self) -> Vec<((FileId, u32), bool)> {
        let inner = self.lock();
        let mut frames: Vec<_> = inner
            .frames
            .iter()
            .flatten()
            .map(|f| (f.key, f.referenced))
            .collect();
        frames.sort();
        frames
    }

    /// Block reads claimed by a reader and not yet installed or given up
    /// (0 whenever the pool is quiet).
    pub fn reads_in_flight(&self) -> usize {
        self.lock().loading.len()
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
    /// errors (conventionally the table or index name) and, in a spilling
    /// pool, its spill file `<label>.<file id>.spill` — by id as well,
    /// because two live files may share a label (a dropped table a
    /// transaction keeps for undo, and its re-created namesake).
    pub fn create_file(&self, kind: FileKind, label: &str) -> FileId {
        let mut inner = self.lock();
        let id = inner.next_file;
        inner.next_file += 1;
        let backing = match &self.spill_dir {
            Some(dir) => Backing::Disk {
                path: dir.join(format!("{label}.{id}.spill")),
                file: OnceLock::new(),
            },
            None => Backing::Memory(Mutex::default()),
        };
        inner.files.insert(
            id,
            FileState {
                kind,
                label: label.to_owned(),
                backing: Arc::new(backing),
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
        inner.files.remove(&file);
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
        self.put_frame(&mut inner, (file, page_no), data, true)?;
        file_state_mut(&mut inner, file)?.page_count = page_no + 1;
        Ok(page_no)
    }

    /// Put `data` in a frame as page `page_no` of `file`, replacing an
    /// existing page or appending at `page_count`. Used by recovery and
    /// rollback to install page images. The frame starts dirty: the page
    /// reaches the backing store only if it is evicted, so installing
    /// pages that fit in the pool writes no block, and one that does not
    /// is encoded and written once, by its eviction.
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
        self.put_frame(&mut inner, (file, page_no), data, true)?;
        let state = file_state_mut(&mut inner, file)?;
        state.page_count = state.page_count.max(page_no + 1);
        Ok(())
    }

    /// Shrink `file` to its first `keep` pages, dropping backing blocks
    /// and frames past the cut. An error cutting the backing store leaves
    /// the file as it was.
    pub fn truncate_file(&self, file: FileId, keep: u32) -> StorageResult<()> {
        let mut inner = self.lock_file(file);
        let state = file_state(&inner, file)?;
        if state.page_count <= keep {
            return Ok(());
        }
        state.backing.truncate(keep)?;
        Self::drop_file_frames(&mut inner, file, keep);
        file_state_mut(&mut inner, file)?.page_count = keep;
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
        self.with_frame(self.lock(), file, page_no, |data, _| f(data))
    }

    /// The sequential-scan access: run `visit` on each page of the run of
    /// `file` that starts at page `start`, in page order, and return how
    /// many pages it visited — 0 past the end of the file. A scan calls it
    /// again from `start` plus that count.
    ///
    /// A file that fits in the pool is admitted a page at a time, as by
    /// [`BufferPool::with_page`]. A file with more pages than the pool has
    /// frames admits nothing (module docs, "Scan resistance"): the run is
    /// its next resident pages, visited from their frames without setting
    /// their reference bits, then the absent pages after them, up to
    /// [`SCAN_RUN`] pages in all and up to the first page that is resident
    /// or another thread is reading. The absent pages are read with one
    /// backing read into `buf` and visited in place with the mutex
    /// released. The threshold follows from [`BufferPool::capacity`] and
    /// is not a setting.
    ///
    /// Each page is one hit or one miss. An error — the visitor's, or the
    /// pool's at page k (a failed read, a corrupt block naming its file
    /// and page) — ends the run; the pages before k have been visited.
    /// The visitor may run with the pool locked: same rules as for
    /// [`BufferPool::with_page`]'s closure.
    pub fn scan_run<E: From<StorageError>>(
        &self,
        file: FileId,
        start: u32,
        buf: &mut ScanBuffer,
        mut visit: impl FnMut(u32, PageView<'_>) -> Result<(), E>,
    ) -> Result<u32, E> {
        let mut inner = self.lock();
        let pages = loop {
            let pages = inner.files.get(&file).map_or(0, |s| s.page_count);
            if start >= pages {
                return Ok(0);
            }
            if pages as usize <= self.capacity {
                let f = heap_page(file, start, |p| visit(start, p.view()));
                self.with_frame(inner, file, start, |data, _| f(data))??;
                return Ok(1);
            }
            if !inner.loading.contains(&(file, start)) {
                break pages;
            }
            inner = self.wait(inner);
        };
        let end = pages.min(start.saturating_add(SCAN_RUN));
        let mut first = start;
        while first < end {
            let Some(&slot) = inner.map.get(&(file, first)) else {
                break;
            };
            self.hits.inc();
            let f = heap_page(file, first, |p| visit(first, p.view()));
            f(&mut frame(&mut inner, slot)?.data)??;
            first += 1;
        }

        // The absent pages that follow are private reads.
        let len = (end - first) as usize * PAGE_SIZE;
        buf.bytes.resize(buf.bytes.len().max(len), 0);
        let (inner, read, (), fault) =
            self.read_absent(inner, file, (first, end), &mut buf.bytes, |_| ())?;
        drop(inner);
        self.private_reads.add(read.into());
        for (p, block) in (first..first + read).zip(buf.bytes.chunks_exact(PAGE_SIZE)) {
            let view = match PageView::from_block(block, "", p) {
                Ok((view, _lsn)) => view,
                // Only a bad block needs the file's name: verify it
                // again to say it.
                Err(e) => {
                    let inner = self.lock();
                    let label = &file_state(&inner, file)?.label;
                    let named = PageView::from_block(block, label, p).err();
                    return Err(named.unwrap_or(e).into());
                }
            };
            visit(p, view)?;
        }
        fault?;
        Ok(first + read - start)
    }

    /// Write access to a heap page; marks the frame dirty. Same closure
    /// rules as [`BufferPool::with_page`].
    pub fn with_page_mut<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        let f = |data: &mut FrameData, dirty: &mut bool| match data {
            FrameData::Heap(p) => {
                *dirty = true;
                Ok(f(p))
            }
            FrameData::Node(_) => Err(kind_mismatch(file, page_no, "heap page", "index node")),
        };
        self.with_frame(self.lock(), file, page_no, f)
    }

    /// Read access to a B+-tree node. Same closure rules as
    /// [`BufferPool::with_page`].
    pub fn with_node<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&Node) -> R,
    ) -> StorageResult<R> {
        self.edit_node(file, page_no, |n| (f(n), false))
    }

    /// Write access to a B+-tree node; marks the frame dirty.
    pub fn with_node_mut<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Node) -> R,
    ) -> StorageResult<R> {
        self.edit_node(file, page_no, |n| (f(n), true))
    }

    /// Access to a B+-tree node that may change it: `f` returns its
    /// result and whether it wrote, and only a node written is marked
    /// dirty. One access both decides and makes a change, and a node left
    /// as it was is not written back. Same closure rules as
    /// [`BufferPool::with_page`].
    pub fn edit_node<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Node) -> (R, bool),
    ) -> StorageResult<R> {
        let f = |data: &mut FrameData, dirty: &mut bool| match data {
            FrameData::Node(n) => {
                let (result, wrote) = f(n);
                *dirty |= wrote;
                Ok(result)
            }
            FrameData::Heap(_) => Err(kind_mismatch(file, page_no, "index node", "heap page")),
        };
        self.with_frame(self.lock(), file, page_no, f)
    }

    /// Make `(file, page_no)` resident and run the closure on its frame
    /// under the pool lock. A closure that writes the frame sets the
    /// frame's dirty flag, the closure's second argument.
    fn with_frame<R>(
        &self,
        inner: Guard<'_>,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut FrameData, &mut bool) -> StorageResult<R>,
    ) -> StorageResult<R> {
        let (mut inner, slot) = self.find(inner, file, page_no)?;
        let frame = frame(&mut inner, slot)?;
        frame.referenced = true;
        f(&mut frame.data, &mut frame.dirty)
    }

    /// The frame slot of `(file, page_no)`: a hit, after waiting out
    /// another thread's read of it if need be, or a miss of one page
    /// (`BufferPool::read_absent`), whose block is verified and decoded
    /// with the mutex released and installed as the page leaves the
    /// in-flight table. The page has left the table when this returns,
    /// whether the read succeeded or not.
    fn find<'a>(
        &'a self,
        mut inner: Guard<'a>,
        file: FileId,
        page_no: u32,
    ) -> StorageResult<(Guard<'a>, usize)> {
        loop {
            if let Some(&slot) = inner.map.get(&(file, page_no)) {
                self.hits.inc();
                return Ok((inner, slot));
            }
            if !inner.loading.contains(&(file, page_no)) {
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
        let kind = state.kind;
        let decode = |block: &[u8], label: &str| FrameData::decode(kind, block, label, page_no);
        let mut block = [0u8; PAGE_SIZE];
        let (mut inner, _, decoded, fault) =
            self.read_absent(inner, file, (page_no, page_no + 1), &mut block, |b| {
                decode(b, "")
            })?;
        fault?;
        let data = match decoded {
            Ok(data) => data,
            // Only a bad block needs the file's name: decode it again to
            // say it. (`lock_file` kept the file alive through the read.)
            Err(e) => {
                let label = &file_state(&inner, file)?.label;
                return Err(decode(&block, label).err().unwrap_or(e));
            }
        };
        let slot = self.put_frame(&mut inner, (file, page_no), data, false)?;
        Ok((inner, slot))
    }

    /// The miss path, and the one place a backing store is read. Claim the
    /// pages of `[first, end)` of `file` up to the first one that is
    /// resident or in flight, firing `storage::pool_read` once per page in
    /// order (a fault ends the claim there); release the mutex, read the
    /// claimed pages with one backing read into the front of `buf` and run
    /// `then` on their bytes; re-lock, take the pages out of the in-flight
    /// table and wake any waiters. Returns the re-locked pool, the number
    /// of pages claimed, `then`'s result, and the fault that ended the
    /// claim if one did. `Err` is a failed read, or a fault at `first`
    /// (nothing claimed).
    fn read_absent<'a, T>(
        &'a self,
        mut inner: Guard<'a>,
        file: FileId,
        (first, end): (u32, u32),
        buf: &mut [u8],
        then: impl FnOnce(&[u8]) -> T,
    ) -> StorageResult<(Guard<'a>, u32, T, StorageResult<()>)> {
        let mut fault = Ok(());
        let last = (first..end)
            .find(|&p| {
                inner.map.contains_key(&(file, p)) || inner.loading.contains(&(file, p)) || {
                    fault = recdb_fault::fail_point("storage::pool_read").map_err(Into::into);
                    fault.is_err()
                }
            })
            .unwrap_or(end);
        if last == first {
            fault?;
            return Ok((inner, 0, then(&[]), Ok(())));
        }
        let backing = Arc::clone(&file_state(&inner, file)?.backing);
        inner.loading.extend((first..last).map(|p| (file, p)));
        drop(inner);

        self.misses.add((last - first).into());
        self.backing_reads.inc();
        let bytes = &mut buf[..(last - first) as usize * PAGE_SIZE];
        let read = backing.read_into(first, bytes).map(|()| then(bytes));
        drop(backing); // before the pages leave: `remove_file` holds the last reference

        let mut inner = self.lock();
        for p in first..last {
            inner.loading.remove(&(file, p));
        }
        self.loaded.notify_all();
        Ok((inner, last - first, read?, fault))
    }

    /// Put `data` in a frame as page `key`: its own if it is resident,
    /// else a free slot, a new one, or the clock's victim once the pool is
    /// at capacity.
    fn put_frame(
        &self,
        inner: &mut PoolInner,
        key: (FileId, u32),
        data: FrameData,
        dirty: bool,
    ) -> StorageResult<usize> {
        let slot = if let Some(&slot) = inner.map.get(&key) {
            slot
        } else if let Some(slot) = inner.free.pop() {
            slot
        } else if inner.frames.len() < self.capacity {
            inner.frames.push(None);
            inner.frames.len() - 1
        } else {
            let victim = Self::find_victim(inner);
            self.evict_slot(inner, victim)?;
            victim
        };
        inner.frames[slot] = Some(Frame {
            key,
            data,
            dirty,
            referenced: true,
        });
        inner.map.insert(key, slot);
        Ok(slot)
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
            file_state(inner, key.0)?.backing.write(key.1, &block)?;
        }
        inner.frames[slot] = None;
        inner.map.remove(&key);
        self.evictions.inc();
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

    // No test here arms a fault site: the ones that do are in
    // tests/faults.rs, where every test holds `recdb_fault::exclusive()`
    // (the fault registry is process-global).

    impl BufferPool {
        /// Resident pages whose frame is newer than the backing store:
        /// what a check that an operation wrote only the pages it changed
        /// counts.
        pub(crate) fn dirty_pages(&self) -> usize {
            let inner = self.lock();
            inner.frames.iter().flatten().filter(|f| f.dirty).count()
        }
    }

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
        let none = |_, _: PageView<'_>| Ok::<_, StorageError>(());
        assert_eq!(
            pool.scan_run(f, 1, &mut ScanBuffer::default(), none)
                .unwrap(),
            0
        );
        assert_eq!((pool.hits(), pool.misses()), before);
    }

    /// A thread that misses a page another thread is already reading
    /// waits for that read instead of issuing its own. The in-flight entry
    /// is planted by hand (this thread plays the loader), so the waiter
    /// cannot get past it until the frame is installed — whichever side
    /// gets there first, it ends as one hit and no backing read.
    #[test]
    fn a_second_miss_on_a_page_in_flight_waits_for_the_first_read() {
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
            pool.put_frame(&mut inner, key, FrameData::Heap(fill_page(0)), false)
                .unwrap();
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
        pool.private_reads.get()
    }

    /// Scan `file` run by run to its end, calling `visit` on every page.
    fn scan_all(pool: &BufferPool, file: FileId, mut visit: impl FnMut(u32, PageView<'_>)) {
        let (mut next, mut buf) = (0, ScanBuffer::default());
        loop {
            let visited = pool
                .scan_run(file, next, &mut buf, |n, p| {
                    visit(n, p);
                    Ok::<_, StorageError>(())
                })
                .unwrap();
            if visited == 0 {
                return;
            }
            next += visited;
        }
    }

    /// Scan resistance: a full scan of a heap 8x the pool leaves the same
    /// pages resident with the same reference bits. It evicts nothing,
    /// reads each page that is not resident once, privately, and serves
    /// the resident ones — a dirty one included — from their frames. A
    /// heap that fits in the pool is admitted like any other access.
    #[test]
    fn a_scan_larger_than_the_pool_admits_nothing() {
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
        let before = pool.resident_frames();
        assert!(before.contains(&((big, 40), true)));
        let resident_big = before.iter().filter(|(k, _)| k.0 == big).count() as u64;
        let (h0, m0, p0, e0) = (
            pool.hits(),
            pool.misses(),
            private_reads(&pool),
            pool.evictions(),
        );
        let mut visited = 0;
        scan_all(&pool, big, |n, p| {
            assert_eq!(n, visited);
            visited += 1;
            let rows = p.iter_live().map(|(_, t)| t).collect::<Vec<_>>();
            let mut want = vec![tuple(n as i64)];
            if n == 40 {
                want.push(tuple(-40));
            }
            assert_eq!(rows, want, "page {n}");
        });
        assert_eq!(visited, 128);
        assert_eq!(pool.resident_frames(), before, "the scan changed the pool");
        assert_eq!(pool.evictions(), e0);
        assert_eq!(pool.misses() - m0, 128 - resident_big);
        assert_eq!(private_reads(&pool) - p0, 128 - resident_big);
        assert_eq!(pool.hits() - h0, resident_big);
        // `small` (4 pages) fits: its scan installs frames, bits set.
        assert!(!before.iter().any(|(k, _)| k.0 == small));
        let mut visited = 0;
        scan_all(&pool, small, |_, _| visited += 1);
        assert_eq!(visited, 4);
        assert_eq!(private_reads(&pool) - p0, 128 - resident_big);
        for n in 0..4 {
            assert!(pool.resident_frames().contains(&((small, n), true)));
        }
    }

    /// One run's worth of each kind of page a scan meets in a file larger
    /// than the pool: absent pages (read together), a clean and a dirty
    /// resident page (served from their frames), and a page another thread
    /// is reading (which ends the run; the next run waits for it). Each
    /// page is visited once, in order, with its own rows; resident pages
    /// are hits, the rest misses read privately, one backing read per
    /// stretch of absent pages; and the pool is left as it was.
    #[test]
    fn a_run_serves_resident_pages_and_reads_absent_ones_together() {
        let dir = std::env::temp_dir().join(format!("recdb-pool-run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for pool in [BufferPool::spilling(16, &dir), BufferPool::in_memory(16)] {
            let big = pool.create_file(FileKind::Heap, "big");
            for n in 0..64 {
                pool.allocate_page(big, FrameData::Heap(fill_page(n)))
                    .unwrap();
            }
            // Twice the pool's worth of index nodes push `big` out; then
            // page 2 comes back clean and page 3 dirty.
            let idx = pool.create_file(FileKind::Index, "idx");
            for _ in 0..32 {
                pool.allocate_page(idx, FrameData::Node(Node::leaf()))
                    .unwrap();
            }
            pool.with_page(big, 2, |_| ()).unwrap();
            pool.with_page_mut(big, 3, |p| p.insert(&tuple(-3)))
                .unwrap()
                .unwrap();
            let before = pool.resident_frames();
            let resident_big: Vec<_> = before.iter().filter(|(k, _)| k.0 == big).collect();
            assert_eq!(resident_big, [&((big, 2), true), &((big, 3), true)]);
            // This thread plays the reader of page 6.
            pool.lock().loading.insert((big, 6));
            let (h0, m0, p0, r0) = (
                pool.hits(),
                pool.misses(),
                private_reads(&pool),
                pool.backing_reads(),
            );
            let visited = std::sync::Mutex::new(Vec::new());
            let run = |start: u32| {
                let mut buf = ScanBuffer::default();
                pool.scan_run(big, start, &mut buf, |n, p| {
                    let rows: Vec<Tuple> = p.iter_live().map(|(_, t)| t).collect();
                    let mut want = vec![tuple(n as i64)];
                    if n == 3 {
                        want.push(tuple(-3));
                    }
                    assert_eq!(rows, want, "page {n}");
                    visited.lock().unwrap().push(n);
                    Ok::<_, StorageError>(())
                })
                .unwrap()
            };
            // Absent 0-1 end at resident 2; resident 2-3 and absent 4-5
            // end at page 6, in flight.
            assert_eq!((run(0), run(2)), (2, 4));
            assert_eq!(pool.backing_reads() - r0, 2);
            let (arrived_tx, arrived_rx) = std::sync::mpsc::channel();
            let rest = std::thread::scope(|s| {
                let scanner = s.spawn(|| {
                    arrived_tx.send(()).unwrap();
                    // Waits for page 6, then reads 6..38 and 38..64.
                    [run(6), run(38), run(64)]
                });
                arrived_rx.recv().unwrap();
                // "The read" gives up without installing the page.
                let mut inner = pool.lock();
                inner.loading.remove(&(big, 6));
                pool.loaded.notify_all();
                drop(inner);
                scanner.join().unwrap()
            });
            assert_eq!(rest, [32, 26, 0]);
            assert_eq!(visited.into_inner().unwrap(), (0..64).collect::<Vec<_>>());
            assert_eq!(pool.hits() - h0, 2);
            assert_eq!(pool.misses() - m0, 62);
            assert_eq!(private_reads(&pool) - p0, 62);
            assert_eq!(pool.backing_reads() - r0, 4);
            assert_eq!(pool.reads_in_flight(), 0);
            assert_eq!(pool.resident_frames(), before, "the scan changed the pool");
            pool.remove_file(big);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A block that fails verification in the middle of a run ends it
    /// there, naming its file and page, after the pages before it are
    /// visited; nothing is left in flight and no frame changes.
    #[test]
    fn a_corrupt_block_in_a_run_names_its_file_and_page() {
        let dir = std::env::temp_dir().join(format!("recdb-pool-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for pool in [BufferPool::spilling(4, &dir), BufferPool::in_memory(4)] {
            let f = pool.create_file(FileKind::Heap, "big");
            for n in 0..40 {
                pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                    .unwrap();
            }
            let backing = Arc::clone(&file_state(&pool.lock(), f).unwrap().backing);
            let mut block = [0u8; PAGE_SIZE];
            backing.read_into(10, &mut block).unwrap();
            block[100] ^= 0x40;
            backing.write(10, &block).unwrap();
            let before = pool.resident_frames();
            let mut visited = Vec::new();
            let err = pool
                .scan_run(f, 0, &mut ScanBuffer::default(), |n, _| {
                    visited.push(n);
                    Ok::<_, StorageError>(())
                })
                .unwrap_err();
            assert!(
                matches!(&err, StorageError::Corruption { file, page: 10, .. } if file == "big"),
                "{err:?}"
            );
            assert_eq!(visited, (0..10).collect::<Vec<_>>());
            assert_eq!(pool.reads_in_flight(), 0);
            assert_eq!(pool.resident_frames(), before);
            pool.remove_file(f);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Readers and a writer over pools a fraction of the data's size.
    /// Page `n` holds rows `(n, 0), (n, 1), …` — the writer appends the
    /// next one — so any block that was torn, read while being written
    /// back, or installed stale shows as a wrong id, a gap, or a page
    /// that went backwards. The file (32 pages) is larger than the pools
    /// (4 frames), so every scan read that misses is a private read; one
    /// reader does nothing but scan the file from end to end, run by run,
    /// while the writer dirties its pages; the others' scan reads are one
    /// run each, from a random page. Seeded by `RECDB_FAULT_SEED` (CI sweeps
    /// it).
    #[test]
    fn pool_stress_readers_and_a_writer_see_every_page_whole() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const PAGES: u32 = 32;
        const READERS: u64 = 4;
        const READS: usize = 3_000;
        const SCANS: usize = 60;
        const WRITES: usize = 1_200;
        let seed: u64 = std::env::var("RECDB_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        let dir = std::env::temp_dir().join(format!("recdb-pool-stress-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let row = |n: u32, v: i64| Tuple::new(vec![Value::Int(n as i64), Value::Int(v)]);
        let check = move |n: u32| {
            move |p: PageView<'_>| {
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
                            // Half the reads go through the scan entry: one
                            // run from page `n`.
                            let mut saw = |n: u32, rows: usize| {
                                accesses.fetch_add(1, Ordering::Relaxed);
                                assert!(rows >= seen[n as usize], "page {n} went backwards");
                                seen[n as usize] = rows;
                            };
                            if i % 2 == 0 {
                                saw(n, pool.with_page(f, n, |p| check(n)(p.view())).unwrap());
                            } else {
                                let visit = |n, p: PageView<'_>| {
                                    saw(n, check(n)(p));
                                    Ok::<_, StorageError>(())
                                };
                                pool.scan_run(f, n, &mut ScanBuffer::default(), visit)
                                    .unwrap();
                            }
                        }
                    });
                }
                let (pool, accesses) = (&pool, &accesses);
                s.spawn(move || {
                    let mut seen = vec![0usize; PAGES as usize];
                    for _ in 0..SCANS {
                        let mut next = 0;
                        scan_all(pool, f, |n, p| {
                            assert_eq!(n, next, "pages in order");
                            next += 1;
                            let rows = check(n)(p);
                            accesses.fetch_add(1, Ordering::Relaxed);
                            assert!(rows >= seen[n as usize], "page {n} went backwards");
                            seen[n as usize] = rows;
                        });
                        assert_eq!(next, PAGES);
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
            assert_eq!(pool.reads_in_flight(), 0);
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

    /// A spilling pool gives each file a spill file `<label>.<id>.spill`,
    /// created at the file's first write-back — a file that never evicts
    /// a dirty page has none — and deleted by `remove_file`.
    #[test]
    fn a_spill_file_is_made_at_its_files_first_write_back() {
        let dir = std::env::temp_dir().join(format!("recdb-pool-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let pool = BufferPool::spilling(2, &dir);
        let f = pool.create_file(FileKind::Heap, "ratings");
        let g = pool.create_file(FileKind::Heap, "ratings");
        let spill = |file: FileId| dir.join(format!("ratings.{file}.spill"));
        for n in 0..2 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        assert!(!dir.exists(), "nothing was written back yet");
        // `g`'s page evicts `f`'s page 0; `g` is cut before its page is.
        pool.allocate_page(g, FrameData::Heap(fill_page(0)))
            .unwrap();
        pool.truncate_file(g, 0).unwrap();
        assert!(spill(f).exists());
        for n in 2..6 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        for n in 0..6u32 {
            let got = pool.with_page(f, n, |p| p.get(0).unwrap()).unwrap();
            assert_eq!(got, tuple(n as i64));
        }
        assert!(!spill(g).exists());
        pool.remove_file(g);
        pool.remove_file(f);
        assert!(!spill(f).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_drops_tail_pages() {
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
    fn an_installed_page_is_written_back_only_when_evicted() {
        let pool = BufferPool::in_memory(2);
        let f = pool.create_file(FileKind::Heap, "t");
        pool.install_page(f, 0, FrameData::Heap(fill_page(7)))
            .unwrap();
        assert_eq!(pool.page_count(f), 1);
        let backing_blocks = |pool: &BufferPool| {
            let inner = pool.lock();
            let state = file_state(&inner, f).unwrap();
            let mut block = [0u8; PAGE_SIZE];
            (0..state.page_count)
                .filter(|&n| state.backing.read_into(n, &mut block).is_ok())
                .count()
        };
        assert_eq!(backing_blocks(&pool), 0, "installed, not written");
        assert_eq!(pool.dirty_pages(), 1);
        // Force the frame out, then fault it back from backing.
        for n in 1..4 {
            pool.allocate_page(f, FrameData::Heap(fill_page(n)))
                .unwrap();
        }
        assert_eq!(backing_blocks(&pool), 2, "pages 0 and 1 were evicted");
        let got = pool.with_page(f, 0, |p| p.get(0).unwrap()).unwrap();
        assert_eq!(got, tuple(7));
        // Installing over a resident page replaces its frame.
        pool.install_page(f, 0, FrameData::Heap(fill_page(8)))
            .unwrap();
        let got = pool.with_page(f, 0, |p| p.get(0).unwrap()).unwrap();
        assert_eq!(got, tuple(8));
    }
}
