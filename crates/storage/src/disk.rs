//! Page-granular storage backends.
//!
//! [`DiskManager`] abstracts over a real file and a RAM-vector backend;
//! everything above (buffer pool, heap files,
//! B+-trees on pages) is backend-agnostic. The in-memory backend is also
//! what the tutorial's "multi-model main-memory structure" challenge calls
//! for as a first step, and it keeps unit tests hermetic.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use mmdb_types::{Error, Result};

use crate::wal::crc32;

/// Fixed page size, 8 KiB like PostgreSQL's default.
pub const PAGE_SIZE: usize = 8192;

/// Byte range of the page checksum within the page header.
///
/// `SlottedPage` reserves a 16-byte header but only uses bytes 0..4
/// (slot count + free-end); bytes 4..8 hold a CRC32 over the rest of the
/// page, stamped by [`DiskManager::write_page`] and verified by
/// [`DiskManager::read_page`]. A stored value of 0 means "no checksum"
/// (pages written before checksumming existed, or never-written zero
/// pages) and is accepted unverified.
pub const PAGE_CRC_RANGE: std::ops::Range<usize> = 4..8;

/// CRC32 of a page with its checksum field treated as zero.
fn page_crc(buf: &[u8]) -> u32 {
    debug_assert_eq!(buf.len(), PAGE_SIZE);
    let mut shadow = [0u8; PAGE_SIZE];
    shadow.copy_from_slice(buf);
    shadow[PAGE_CRC_RANGE].fill(0);
    crc32(&shadow)
}

/// Identifier of a page within one `DiskManager`.
pub type PageId = u64;

trait Backend: Send + Sync {
    fn read(&self, page: PageId, buf: &mut [u8]) -> Result<()>;
    fn write(&self, page: PageId, buf: &[u8]) -> Result<()>;
    fn sync(&self) -> Result<()>;
}

struct FileBackend {
    file: File,
}

impl Backend for FileBackend {
    fn read(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        self.file
            .read_exact_at(buf, page * PAGE_SIZE as u64)
            .map_err(|e| Error::Storage(format!("read page {page}: {e}")))
    }

    fn write(&self, page: PageId, buf: &[u8]) -> Result<()> {
        self.file
            .write_all_at(buf, page * PAGE_SIZE as u64)
            .map_err(|e| Error::Storage(format!("write page {page}: {e}")))
    }

    fn sync(&self) -> Result<()> {
        crate::durable_sync(&self.file, File::sync_data).map_err(|e| Error::Storage(format!("fsync: {e}")))
    }
}

struct MemBackend {
    pages: Mutex<Vec<Box<[u8; PAGE_SIZE]>>>,
}

impl Backend for MemBackend {
    fn read(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        let pages = self.pages.lock();
        let p = pages
            .get(page as usize)
            .ok_or_else(|| Error::Storage(format!("read of unallocated page {page}")))?;
        buf.copy_from_slice(p.as_slice());
        Ok(())
    }

    fn write(&self, page: PageId, buf: &[u8]) -> Result<()> {
        let mut pages = self.pages.lock();
        while pages.len() <= page as usize {
            pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().expect("size")); // lint: allow(panic, vec of exactly PAGE_SIZE bytes; fixed-size conversion is infallible)
        }
        pages[page as usize].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// Allocates, reads and writes fixed-size pages.
pub struct DiskManager {
    backend: Box<dyn Backend>,
    next_page: AtomicU64,
}

impl DiskManager {
    /// Open (or create) a file-backed manager. Existing pages are preserved;
    /// allocation continues after the last full page.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path.as_ref())
            .map_err(|e| Error::Storage(format!("open {:?}: {e}", path.as_ref())))?;
        let len = file
            .metadata()
            .map_err(|e| Error::Storage(e.to_string()))?
            .len();
        Ok(DiskManager {
            backend: Box::new(FileBackend { file }),
            next_page: AtomicU64::new(len / PAGE_SIZE as u64),
        })
    }

    /// A purely in-memory manager.
    pub fn in_memory() -> Self {
        DiskManager {
            backend: Box::new(MemBackend { pages: Mutex::new(Vec::new()) }),
            next_page: AtomicU64::new(0),
        }
    }

    /// Allocate a fresh page id (the page is materialized on first write).
    pub fn allocate(&self) -> PageId {
        self.next_page.fetch_add(1, Ordering::SeqCst)
    }

    /// Number of pages allocated so far.
    pub fn page_count(&self) -> u64 {
        self.next_page.load(Ordering::SeqCst)
    }

    /// Read a page into `buf` (must be `PAGE_SIZE` long) and verify its
    /// checksum. A mismatch returns a typed `corruption` error instead of
    /// letting the caller decode garbage. Pages whose stored checksum is 0
    /// (never written, or written before checksumming existed) are
    /// accepted unverified; the odds of real corruption zeroing exactly
    /// the checksum field and nothing the header sanity checks catch are
    /// what the legacy escape hatch costs.
    pub fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.backend.read(page, buf)?;
        let stored = u32::from_le_bytes(buf[PAGE_CRC_RANGE].try_into().expect("4 bytes")); // lint: allow(panic, PAGE_CRC_RANGE is a fixed 4-byte range; conversion is infallible)
        if stored != 0 {
            let computed = page_crc(buf);
            if computed != stored {
                return Err(Error::Corruption(format!(
                    "page {page} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )));
            }
        }
        Ok(())
    }

    /// Write a page from `buf` (must be `PAGE_SIZE` long), stamping its
    /// checksum into the header (see [`PAGE_CRC_RANGE`]).
    pub fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let mut stamped = [0u8; PAGE_SIZE];
        stamped.copy_from_slice(buf);
        stamped[PAGE_CRC_RANGE].copy_from_slice(&page_crc(buf).to_le_bytes());
        // Failpoint `disk.write_page`: `short` writes a torn page (tail
        // zeroed) and then errors, the classic partial-page crash. The
        // tear lands *after* the checksum stamp, so a later read of the
        // torn page fails verification — exactly what the checksum is for.
        match mmdb_fault::eval("disk.write_page") {
            mmdb_fault::Decision::Proceed => self.backend.write(page, &stamped),
            mmdb_fault::Decision::Fail(msg) => {
                Err(Error::Storage(format!("write page {page}: {msg}")))
            }
            mmdb_fault::Decision::Short => {
                for b in &mut stamped[PAGE_SIZE / 2..] {
                    *b = 0;
                }
                self.backend.write(page, &stamped)?;
                Err(Error::Storage(format!("write page {page}: torn page (injected)")))
            }
        }
    }

    /// Durably flush all written pages.
    pub fn sync(&self) -> Result<()> {
        self.backend.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_backend_roundtrip() {
        let dm = DiskManager::in_memory();
        let p = dm.allocate();
        let q = dm.allocate();
        assert_ne!(p, q);
        let data = [42u8; PAGE_SIZE];
        dm.write_page(p, &data).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        dm.read_page(p, &mut buf).unwrap();
        // The payload round-trips; the header's checksum field is stamped
        // by write_page and differs from the input.
        assert_eq!(buf[..PAGE_CRC_RANGE.start], data[..PAGE_CRC_RANGE.start]);
        assert_eq!(buf[PAGE_CRC_RANGE.end..], data[PAGE_CRC_RANGE.end..]);
        assert_ne!(buf[PAGE_CRC_RANGE], [42u8; 4], "checksum was stamped");
    }

    #[test]
    fn flipped_byte_is_detected_as_corruption() {
        let dir = std::env::temp_dir().join(format!("mmdb-crc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        let page;
        {
            let dm = DiskManager::open(&path).unwrap();
            page = dm.allocate();
            let mut data = [0u8; PAGE_SIZE];
            data[100..105].copy_from_slice(b"hello");
            dm.write_page(page, &data).unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            dm.read_page(page, &mut buf).unwrap();
        }
        // Flip one payload byte behind the manager's back.
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().read(true).write(true).open(&path).unwrap();
            let off = page * PAGE_SIZE as u64 + 102;
            let mut b = [0u8; 1];
            f.seek(SeekFrom::Start(off)).unwrap();
            f.read_exact(&mut b).unwrap();
            b[0] ^= 0xFF;
            f.seek(SeekFrom::Start(off)).unwrap();
            f.write_all(&b).unwrap();
        }
        {
            let dm = DiskManager::open(&path).unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            let err = dm.read_page(page, &mut buf).unwrap_err();
            assert_eq!(err.kind(), "corruption", "got {err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_pages_without_checksum_still_read() {
        // A page written directly to the backing file with a zero checksum
        // field (the pre-checksum on-disk format) must stay readable.
        let dir = std::env::temp_dir().join(format!("mmdb-crc0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&path).unwrap();
            let mut legacy = [7u8; PAGE_SIZE];
            legacy[PAGE_CRC_RANGE].fill(0);
            f.write_all(&legacy).unwrap();
        }
        let dm = DiskManager::open(&path).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        dm.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unallocated_read_fails_in_memory() {
        let dm = DiskManager::in_memory();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(dm.read_page(99, &mut buf).is_err());
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("mmdb-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        let page;
        {
            let dm = DiskManager::open(&path).unwrap();
            page = dm.allocate();
            let mut data = [0u8; PAGE_SIZE];
            // Past the header's checksum field (see PAGE_CRC_RANGE).
            data[8..13].copy_from_slice(b"mmdb!");
            dm.write_page(page, &data).unwrap();
            dm.sync().unwrap();
        }
        {
            let dm = DiskManager::open(&path).unwrap();
            assert_eq!(dm.page_count(), page + 1);
            let mut buf = [0u8; PAGE_SIZE];
            dm.read_page(page, &mut buf).unwrap();
            assert_eq!(&buf[8..13], b"mmdb!");
            // Allocation continues after existing pages.
            assert_eq!(dm.allocate(), page + 1);
        }
        let _ = std::fs::remove_file(&path);
    }
}
