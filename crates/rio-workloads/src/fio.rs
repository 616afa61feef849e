//! FIO-style microbenchmark driver: append + fsync to private files.
//!
//! The §6.3 workload: each "thread" (job) appends 4 KB to its own file
//! and calls fsync, which always triggers metadata journaling.

use rio_fs::{BlockDev, RioFs};

/// One FIO job against a mounted file system.
#[derive(Debug, Clone)]
// rio-lint: allow(S6) ROADMAP 1(a): the simplest source of a recorded block script
pub struct FioJob {
    /// File name this job owns.
    pub file: String,
    /// Bytes per write.
    pub write_size: usize,
    /// Journal area (core) this job commits through.
    pub core: usize,
    offset: u64,
}

impl FioJob {
    /// Creates a job writing `write_size` bytes per operation.
    pub fn new(id: usize, write_size: usize) -> Self {
        FioJob {
            file: format!("fio.{id}"),
            write_size,
            core: id,
            offset: 0,
        }
    }

    /// Ensures the job's file exists.
    pub fn setup<D: BlockDev>(&self, fs: &mut RioFs<D>) {
        if fs.stat(&self.file).is_none() {
            fs.create(&self.file).expect("create fio file");
        }
    }

    /// One append + fsync; wraps when the file reaches its size cap.
    pub fn step<D: BlockDev>(&mut self, fs: &mut RioFs<D>) {
        let payload = vec![(self.offset % 251) as u8; self.write_size];
        if self.offset + self.write_size as u64 > rio_fs::layout::Inode::max_size() {
            self.offset = 0;
        }
        fs.write(&self.file, self.offset, &payload).expect("write");
        fs.fsync(&self.file, self.core).expect("fsync");
        self.offset += self.write_size as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_fs::MemDev;

    #[test]
    fn job_appends_and_persists() {
        let mut fs = RioFs::mkfs(MemDev::new(2048), 2);
        let mut job = FioJob::new(0, 4096);
        job.setup(&mut fs);
        for _ in 0..4 {
            job.step(&mut fs);
        }
        assert_eq!(fs.stat("fio.0"), Some(4 * 4096));
        assert_eq!(fs.fsyncs, 4);
        assert!(fs.fsck().is_empty());
    }

    #[test]
    fn job_wraps_at_max_size() {
        let mut fs = RioFs::mkfs(MemDev::new(2048), 1);
        let mut job = FioJob::new(1, 4096);
        job.setup(&mut fs);
        let max_blocks = rio_fs::layout::Inode::max_size() / 4096;
        for _ in 0..max_blocks + 3 {
            job.step(&mut fs);
        }
        assert!(fs.fsck().is_empty());
    }
}
