//! RAM/disk page management for sealed postings blocks.
//!
//! A [`PageManager`] owns a byte budget. Pages allocate RAM-resident
//! ("hot"); when residency exceeds the budget a second-chance clock sweep
//! spills cold pages to an anonymous append-only spill file (created via
//! plain `std::fs`, unlinked immediately on Unix so the OS reclaims it when
//! the process exits). Page payloads are immutable, so a page is written to
//! disk at most once — later evictions just drop the RAM copy and point
//! back at the original offset.
//!
//! Readers call [`PageManager::load`], which returns the payload `Arc` — a
//! fault (disk read, counted in [`PagerStats::page_faults`]) when the page
//! is cold. The returned `Arc` keeps the bytes alive regardless of what the
//! evictor does next.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Counters exposed on `/stats` and the bench report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Pages currently RAM-resident.
    pub hot_pages: u64,
    /// Pages currently spilled to disk only.
    pub cold_pages: u64,
    /// Loads that had to read the spill file.
    pub page_faults: u64,
}

#[derive(Debug)]
enum PageState {
    Ram {
        bytes: Arc<[u8]>,
        /// Spill-file offset if this page has ever been written out —
        /// payloads are immutable, so the copy stays valid forever.
        spilled_at: Option<u64>,
    },
    Disk {
        offset: u64,
    },
}

/// Counters shared between the manager and its pages, so a page dropped
/// with its owning list (compaction, a dropped index) settles its own
/// residency accounting.
#[derive(Debug, Default)]
struct Counters {
    resident_bytes: AtomicUsize,
    hot: AtomicU64,
    cold: AtomicU64,
    faults: AtomicU64,
}

/// One page: a sealed block's encoded payload, RAM- or disk-resident.
#[derive(Debug)]
pub struct PageCell {
    len: u32,
    /// Second-chance bit: set on access, cleared (once) by the clock sweep.
    touched: AtomicBool,
    state: Mutex<PageState>,
    counters: Arc<Counters>,
}

impl Drop for PageCell {
    fn drop(&mut self) {
        match *self.state.get_mut().unwrap() {
            PageState::Ram { .. } => {
                self.counters.resident_bytes.fetch_sub(self.len(), Ordering::Relaxed);
                self.counters.hot.fetch_sub(1, Ordering::Relaxed);
            }
            PageState::Disk { .. } => {
                self.counters.cold.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Shared handle to a page.
pub type Page = Arc<PageCell>;

impl PageCell {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True while the payload is in RAM.
    pub fn is_resident(&self) -> bool {
        matches!(*self.state.lock().unwrap(), PageState::Ram { .. })
    }
}

#[derive(Debug, Default)]
struct SpillFile {
    file: Option<File>,
    next_offset: u64,
}

/// The hot/cold page pool (see the module docs).
#[derive(Debug)]
pub struct PageManager {
    budget: usize,
    spill_dir: Option<PathBuf>,
    counters: Arc<Counters>,
    /// Clock ring over allocated pages; entries are weak so dropped lists
    /// release their pages without unregistering.
    ring: Mutex<VecDeque<Weak<PageCell>>>,
    spill: Mutex<SpillFile>,
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl PageManager {
    /// A manager keeping at most `budget` payload bytes RAM-resident
    /// (best-effort: recently touched pages get a second chance). The spill
    /// file is created lazily in `spill_dir` (default: the system temp
    /// directory).
    pub fn new(budget: usize, spill_dir: Option<PathBuf>) -> Self {
        PageManager {
            budget,
            spill_dir,
            counters: Arc::new(Counters::default()),
            ring: Mutex::new(VecDeque::new()),
            spill: Mutex::new(SpillFile::default()),
        }
    }

    /// RAM budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Current counters.
    pub fn stats(&self) -> PagerStats {
        PagerStats {
            hot_pages: self.counters.hot.load(Ordering::Relaxed),
            cold_pages: self.counters.cold.load(Ordering::Relaxed),
            page_faults: self.counters.faults.load(Ordering::Relaxed),
        }
    }

    /// Payload bytes currently RAM-resident.
    pub fn resident_bytes(&self) -> usize {
        self.counters.resident_bytes.load(Ordering::Relaxed)
    }

    /// Adopt an immutable payload as a new (hot) page, evicting others if
    /// the budget is now exceeded.
    pub fn alloc(&self, bytes: Arc<[u8]>) -> Page {
        let len = bytes.len();
        let cell = Arc::new(PageCell {
            len: len as u32,
            touched: AtomicBool::new(true),
            state: Mutex::new(PageState::Ram { bytes, spilled_at: None }),
            counters: Arc::clone(&self.counters),
        });
        self.ring.lock().unwrap().push_back(Arc::downgrade(&cell));
        self.counters.resident_bytes.fetch_add(len, Ordering::Relaxed);
        self.counters.hot.fetch_add(1, Ordering::Relaxed);
        self.evict_to_budget();
        cell
    }

    /// The page's payload, faulting it in from the spill file if cold. The
    /// returned `Arc` keeps the bytes alive independently of eviction.
    pub fn load(&self, page: &Page) -> Arc<[u8]> {
        let mut state = page.state.lock().unwrap();
        match &*state {
            PageState::Ram { bytes, .. } => {
                page.touched.store(true, Ordering::Relaxed);
                Arc::clone(bytes)
            }
            PageState::Disk { offset } => {
                let offset = *offset;
                self.counters.faults.fetch_add(1, Ordering::Relaxed);
                let mut buf = vec![0u8; page.len()];
                {
                    let mut spill = self.spill.lock().unwrap();
                    let file = spill.file.as_mut().expect("cold page without a spill file");
                    file.seek(SeekFrom::Start(offset)).expect("seek in spill file");
                    file.read_exact(&mut buf).expect("read spilled page");
                }
                let bytes: Arc<[u8]> = buf.into();
                *state = PageState::Ram { bytes: Arc::clone(&bytes), spilled_at: Some(offset) };
                drop(state);
                page.touched.store(true, Ordering::Relaxed);
                self.counters.resident_bytes.fetch_add(page.len(), Ordering::Relaxed);
                self.counters.hot.fetch_add(1, Ordering::Relaxed);
                self.counters.cold.fetch_sub(1, Ordering::Relaxed);
                self.ring.lock().unwrap().push_back(Arc::downgrade(page));
                self.evict_to_budget();
                bytes
            }
        }
    }

    /// Second-chance clock sweep until residency fits the budget (or every
    /// survivor was recently touched, or a spill failed).
    fn evict_to_budget(&self) {
        let mut attempts = 2 * self.ring.lock().unwrap().len() + 1;
        while self.counters.resident_bytes.load(Ordering::Relaxed) > self.budget && attempts > 0 {
            attempts -= 1;
            let Some(weak) = self.ring.lock().unwrap().pop_front() else { break };
            let Some(cell) = weak.upgrade() else {
                // The owning list died; its RAM copy went with it.
                continue;
            };
            if cell.touched.swap(false, Ordering::Relaxed) {
                self.ring.lock().unwrap().push_back(weak);
                continue;
            }
            if !self.evict(&cell) {
                // The spill file cannot take it: stay over budget, keep the
                // page resident, and let the next eviction try again.
                self.ring.lock().unwrap().push_back(weak);
                break;
            }
        }
    }

    /// Drop the page's RAM copy; false (and still resident) when it has
    /// never been spilled and the spill write fails.
    fn evict(&self, cell: &PageCell) -> bool {
        let mut state = cell.state.lock().unwrap();
        let PageState::Ram { bytes, spilled_at } = &*state else { return true };
        let offset = match spilled_at {
            Some(off) => *off,
            None => match self.spill_out(bytes) {
                Ok(offset) => offset,
                Err(_) => return false,
            },
        };
        *state = PageState::Disk { offset };
        drop(state);
        self.counters.resident_bytes.fetch_sub(cell.len(), Ordering::Relaxed);
        self.counters.hot.fetch_sub(1, Ordering::Relaxed);
        self.counters.cold.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Append a payload to the spill file (created on first use), returning
    /// its offset.
    fn spill_out(&self, bytes: &[u8]) -> io::Result<u64> {
        let mut spill = self.spill.lock().unwrap();
        let offset = spill.next_offset;
        let file = match &mut spill.file {
            Some(file) => file,
            None => {
                let dir = self.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
                let path = dir.join(format!(
                    "ctk-spill-{}-{}.bin",
                    std::process::id(),
                    SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let file =
                    OpenOptions::new().read(true).write(true).create_new(true).open(&path)?;
                // Unlink immediately (Unix): the fd stays valid and the OS
                // reclaims the space when the last handle closes.
                #[cfg(unix)]
                let _ = std::fs::remove_file(&path);
                spill.file.insert(file)
            }
        };
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(bytes)?;
        spill.next_offset += bytes.len() as u64;
        Ok(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(b: u8, n: usize) -> Arc<[u8]> {
        vec![b; n].into()
    }

    #[test]
    fn within_budget_nothing_spills() {
        let m = PageManager::new(1024, None);
        let pages: Vec<Page> = (0..4).map(|i| m.alloc(payload(i, 100))).collect();
        assert_eq!(m.stats(), PagerStats { hot_pages: 4, cold_pages: 0, page_faults: 0 });
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(m.load(p)[0], i as u8);
        }
        assert_eq!(m.stats().page_faults, 0);
    }

    #[test]
    fn over_budget_spills_and_faults_back() {
        let m = PageManager::new(250, None);
        let pages: Vec<Page> = (0..4).map(|i| m.alloc(payload(i, 100))).collect();
        let s = m.stats();
        assert!(s.cold_pages >= 2, "budget forces spills: {s:?}");
        assert!(m.resident_bytes() <= 250 + 100);
        // Every page still reads back its exact payload.
        for (i, p) in pages.iter().enumerate() {
            let bytes = m.load(p);
            assert_eq!(bytes.len(), 100);
            assert!(bytes.iter().all(|&b| b == i as u8));
        }
        assert!(m.stats().page_faults >= 2);
    }

    #[test]
    fn dropped_pages_leave_the_ring() {
        let m = PageManager::new(100, None);
        for i in 0..8 {
            let p = m.alloc(payload(i, 60));
            drop(p);
        }
        // Allocating one more sweeps the dead entries without panicking.
        let live = m.alloc(payload(9, 60));
        assert!(live.is_resident());
    }

    #[test]
    fn a_failed_spill_keeps_pages_resident() {
        // The spill file cannot be created: every page stays in RAM, over
        // budget, and reads back its exact payload.
        let missing = std::env::temp_dir().join(format!("ctk-no-such-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&missing);
        let m = PageManager::new(100, Some(missing.clone()));
        let pages: Vec<Page> = (0..6).map(|i| m.alloc(payload(i, 80))).collect();
        assert_eq!(m.stats(), PagerStats { hot_pages: 6, cold_pages: 0, page_faults: 0 });
        assert_eq!(m.resident_bytes(), 6 * 80);
        for (i, p) in pages.iter().enumerate() {
            assert!(p.is_resident());
            assert_eq!(*m.load(p), *payload(i as u8, 80));
        }
        // Once the directory exists, the next eviction spills.
        std::fs::create_dir_all(&missing).unwrap();
        let pages: Vec<Page> = pages.into_iter().chain([m.alloc(payload(6, 80))]).collect();
        assert!(m.stats().cold_pages > 0, "{:?}", m.stats());
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(*m.load(p), *payload(i as u8, 80));
        }
        std::fs::remove_dir_all(&missing).unwrap();
    }

    #[test]
    fn spill_offsets_stay_valid_after_reload() {
        // Spill, fault back, spill again: the second eviction reuses the
        // original offset (payloads are immutable).
        let m = PageManager::new(100, None);
        let a = m.alloc(payload(7, 80));
        let _b = m.alloc(payload(8, 80)); // evicts a
        assert!(!a.is_resident());
        assert_eq!(m.load(&a)[0], 7); // fault back
        let _c = m.alloc(payload(9, 80));
        let _d = m.alloc(payload(10, 80));
        assert_eq!(m.load(&a)[0], 7, "offset survives re-eviction");
    }
}
