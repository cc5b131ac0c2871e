//! Backend selection, mirroring StreamBrain's `backend=` argument.

use std::sync::Arc;

use crate::naive::NaiveBackend;
use crate::parallel::ParallelBackend;
use crate::traits::Backend;

/// The available compute backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Single-threaded reference kernels.
    Naive,
    /// Multi-threaded GEMM-based kernels (the default).
    #[default]
    Parallel,
}

const NAMES: [(&str, BackendKind); 7] = [
    ("naive", BackendKind::Naive),
    ("parallel", BackendKind::Parallel),
    ("reference", BackendKind::Naive),
    ("numpy", BackendKind::Naive),
    ("openmp", BackendKind::Parallel),
    ("cpu", BackendKind::Parallel),
    ("threaded", BackendKind::Parallel),
];

impl BackendKind {
    /// Parse a backend name (`"naive"` / `"parallel"` or an alias,
    /// case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        let name = name.trim().to_ascii_lowercase();
        NAMES
            .iter()
            .find(|(accepted, _)| *accepted == name)
            .map(|&(_, kind)| kind)
    }

    /// Every name [`BackendKind::parse`] accepts, canonical names first —
    /// for error messages that must not drift from the parser.
    pub fn accepted_names() -> impl Iterator<Item = &'static str> {
        NAMES.iter().map(|&(name, _)| name)
    }

    /// Instantiate the backend.
    pub fn create(self) -> Arc<dyn Backend> {
        match self {
            Self::Naive => Arc::new(NaiveBackend::new()),
            Self::Parallel => Arc::new(ParallelBackend::new()),
        }
    }

    /// Name of the backend kind.
    pub fn name(self) -> &'static str {
        match self {
            Self::Naive => "naive",
            Self::Parallel => "parallel",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Convenience constructor for the default backend.
pub fn default_backend() -> Arc<dyn Backend> {
    BackendKind::default().create()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(BackendKind::parse("naive"), Some(BackendKind::Naive));
        assert_eq!(BackendKind::parse("NumPy"), Some(BackendKind::Naive));
        assert_eq!(
            BackendKind::parse(" parallel "),
            Some(BackendKind::Parallel)
        );
        assert_eq!(BackendKind::parse("openmp"), Some(BackendKind::Parallel));
        assert_eq!(BackendKind::parse("cuda"), None);
        // A SIMD tier (`BCPNN_SIMD`) is not a backend.
        assert_eq!(BackendKind::parse("lanes"), None);
        assert_eq!(BackendKind::parse("SIMD"), None);
    }

    #[test]
    fn create_returns_matching_backend() {
        assert_eq!(BackendKind::Naive.create().name(), "naive");
        assert_eq!(BackendKind::Parallel.create().name(), "parallel");
        assert_eq!(default_backend().name(), "parallel");
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(BackendKind::Naive.to_string(), "naive");
        assert_eq!(BackendKind::Parallel.to_string(), "parallel");
    }
}
