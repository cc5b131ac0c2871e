//! Error type for the serving subsystem.

use std::fmt;

use bcpnn_core::CoreError;

/// Errors surfaced by the registry, pipeline, and inference server.
///
/// Cloneable (unlike [`CoreError`]) because one failed batch fans the same
/// error out to every caller waiting on it.
///
/// Marked `#[non_exhaustive]`: new failure modes may be added without a
/// breaking change, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// No model is registered under the requested name.
    UnknownModel(String),
    /// A request's feature vector has the wrong width for the model.
    ShapeMismatch {
        /// Width the served model expects.
        expected: usize,
        /// Width the request supplied.
        got: usize,
    },
    /// The model rejected the batch (wraps the rendered [`CoreError`]).
    Model(String),
    /// Loading or saving a model artifact failed.
    Io(String),
    /// The request's deadline passed before a worker could run it; the
    /// forward pass was skipped entirely.
    DeadlineExceeded,
    /// The model's confidence (top-2 probability margin) fell below the
    /// caller's [`SubmitOptions::abstain_below`] threshold; the prediction
    /// was withheld rather than returned.
    ///
    /// [`SubmitOptions::abstain_below`]: crate::SubmitOptions::abstain_below
    Abstained,
    /// The server is shutting down (or already shut down) and the request
    /// cannot be served.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "no model named {name:?} is registered"),
            ServeError::ShapeMismatch { expected, got } => write!(
                f,
                "request has {got} features but the model expects {expected}"
            ),
            ServeError::Model(msg) => write!(f, "model error: {msg}"),
            ServeError::Io(msg) => write!(f, "artifact I/O error: {msg}"),
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before it could be served")
            }
            ServeError::Abstained => {
                write!(
                    f,
                    "model abstained: prediction confidence below the requested threshold"
                )
            }
            ServeError::Disconnected => write!(f, "inference server is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Io(io) => ServeError::Io(io.to_string()),
            other => ServeError::Model(other.to_string()),
        }
    }
}

/// Convenience alias used across the crate.
pub type ServeResult<T> = Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeError::UnknownModel("higgs".into())
            .to_string()
            .contains("higgs"));
        let e = ServeError::ShapeMismatch {
            expected: 28,
            got: 3,
        };
        assert!(e.to_string().contains("28"));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn core_errors_convert() {
        let e: ServeError = CoreError::InvalidParams("bad".into()).into();
        assert!(matches!(e, ServeError::Model(_)));
        let io = CoreError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        let e: ServeError = io.into();
        assert!(matches!(e, ServeError::Io(_)));
    }
}
