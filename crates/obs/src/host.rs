//! What the host offers the workspace's thread pools.

use std::sync::OnceLock;

/// The machine's available parallelism (at least 1), read once per
/// process: [`std::thread::available_parallelism`] re-reads the cgroup
/// quota files on every call, and every characterization sweep and
/// worker pool asks for it.
pub fn available_parallelism() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_positive_and_stable() {
        let first = available_parallelism();
        assert!(first >= 1);
        assert_eq!(available_parallelism(), first);
    }
}
