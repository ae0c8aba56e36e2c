//! Per-test scratch directories.
//!
//! A fixed path under the system temp dir is shared by every test
//! that names it: two tests of one binary running on parallel threads,
//! or two binaries running at once, then create and delete each
//! other's files. [`TestDir`] keys the directory by the test's name
//! and the process id instead, and removes it when dropped.

use std::path::{Path, PathBuf};

/// A fresh, empty directory `<temp>/aos-<test>-<pid>`, removed with
/// everything in it on drop. `test` must be unique among the tests of
/// one binary.
///
/// # Examples
///
/// ```
/// let dir = aos_util::TestDir::new("testdir-doc").expect("create test dir");
/// let file = dir.join("a.txt");
/// std::fs::write(&file, "x").expect("write");
/// drop(dir);
/// assert!(!file.exists());
/// ```
#[derive(Debug)]
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates the directory, first clearing any leftover of an
    /// earlier process that had the same id.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory.
    pub fn new(test: &str) -> std::io::Result<Self> {
        let path = std::env::temp_dir().join(format!("aos-{test}-{}", std::process::id()));
        // Absent is the normal case; a real failure resurfaces below.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless, a panic in
        // drop during unwinding is not.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
