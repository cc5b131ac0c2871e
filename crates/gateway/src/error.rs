//! The one failure vocabulary of the serving tier: every refusal, on
//! either front and across the cluster's interior hop, is an [`ApiError`]
//! whose [`ErrorCode`] decides its HTTP status.
//!
//! [`ErrorCode::status`] is the only table from a failure to a status.
//! `From<&ServeError>` and `From<&LearnError>` are the only tables into a
//! code; every other failure names its code where it is raised. A backend
//! node sends the code and message of its [`ApiError`] in an error frame,
//! and the router builds the same [`ApiError`] back from the frame, so a
//! cluster answers a refusal byte for byte as a single gateway does.
//!
//! On the batch predict endpoint, abstention is reported **in-band**
//! instead: abstained rows carry `null` predictions plus
//! `"abstained": true` in a `200` response, so one low-confidence row
//! does not discard its siblings' answers. [`ErrorCode::Abstained`]
//! covers any path that surfaces the raw [`ServeError::Abstained`].

use bcpnn_learn::LearnError;
use bcpnn_serve::ServeError;

use crate::http::Response;
use crate::json::Json;

/// What went wrong, as one byte. The cluster's interior protocol carries
/// it in an error frame (`bcpnn_cluster::wire`): bytes 1–10 are the ones
/// protocol version 1 has always carried. The codes after them are raised
/// by an HTTP front or by the router itself, and no node sends them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// No model (or no online learner) under the requested name.
    UnknownModel = 1,
    /// The rows have the wrong number of features for the model.
    ShapeMismatch = 2,
    /// The model rejected a well-formed batch.
    Model = 3,
    /// The node could not load the artifact a publish names.
    Io = 4,
    /// The request's deadline passed before it could be served.
    DeadlineExceeded = 5,
    /// The server cannot take the request now: it is shutting down, or
    /// its accept queue is full. Retryable; the router fails a predict
    /// over to the next replica.
    Disconnected = 6,
    /// The artifact path is outside the allowlisted root.
    Forbidden = 7,
    /// The request was malformed: its framing, headers, body or model name.
    BadRequest = 8,
    /// The online learner's queue is full; retry later.
    Overloaded = 9,
    /// The model abstained: its confidence fell below the request's
    /// threshold. Only a single-row path reports it as a failure.
    Abstained = 10,
    /// What stands behind the front failed: an artifact read in the
    /// serving stack, or, on the router, every node it could ask.
    BadGateway = 11,
    /// No endpoint lives at the request path.
    NotFound = 12,
    /// The path exists, but not under the request's method.
    MethodNotAllowed = 13,
    /// The connection failed or was too slow while the request was read.
    RequestTimeout = 14,
    /// The declared body exceeds the body limit.
    PayloadTooLarge = 15,
    /// The request head exceeds the head limit.
    HeadTooLarge = 16,
}

impl ErrorCode {
    /// Every code, in byte order.
    pub const ALL: [ErrorCode; 16] = [
        ErrorCode::UnknownModel,
        ErrorCode::ShapeMismatch,
        ErrorCode::Model,
        ErrorCode::Io,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Disconnected,
        ErrorCode::Forbidden,
        ErrorCode::BadRequest,
        ErrorCode::Overloaded,
        ErrorCode::Abstained,
        ErrorCode::BadGateway,
        ErrorCode::NotFound,
        ErrorCode::MethodNotAllowed,
        ErrorCode::RequestTimeout,
        ErrorCode::PayloadTooLarge,
        ErrorCode::HeadTooLarge,
    ];

    /// Decode from the wire byte.
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|&c| c as u8 == code)
    }

    /// The HTTP status a failure with this code answers with, on the
    /// gateway and on the router alike:
    ///
    /// | code                                 | status | why                                         |
    /// |--------------------------------------|--------|---------------------------------------------|
    /// | `Abstained`                          | 204    | the model declined to answer: no content    |
    /// | `BadRequest`, `ShapeMismatch`        | 400    | the client sent something malformed         |
    /// | `Forbidden`                          | 403    | the artifact path is outside the root       |
    /// | `UnknownModel`, `NotFound`           | 404    | the resource does not exist                 |
    /// | `MethodNotAllowed`                   | 405    | answered with an `Allow` header             |
    /// | `RequestTimeout`                     | 408    | the request never arrived whole             |
    /// | `PayloadTooLarge`                    | 413    | over the body limit, unread                 |
    /// | `Io`                                 | 422    | the artifact does not load: the client's    |
    /// | `Overloaded`                         | 429    | learn backpressure; retry later             |
    /// | `HeadTooLarge`                       | 431    | over the head limit                         |
    /// | `Model`                              | 500    | the model failed a valid batch              |
    /// | `BadGateway`                         | 502    | what stands behind the front failed         |
    /// | `Disconnected`                       | 503    | shutting down or shedding; retryable        |
    /// | `DeadlineExceeded`                   | 504    | the front gave up waiting, as a proxy does  |
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::Abstained => 204,
            ErrorCode::BadRequest | ErrorCode::ShapeMismatch => 400,
            ErrorCode::Forbidden => 403,
            ErrorCode::UnknownModel | ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::RequestTimeout => 408,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::Io => 422,
            ErrorCode::Overloaded => 429,
            ErrorCode::HeadTooLarge => 431,
            ErrorCode::Model => 500,
            ErrorCode::BadGateway => 502,
            ErrorCode::Disconnected => 503,
            ErrorCode::DeadlineExceeded => 504,
        }
    }
}

impl From<&ServeError> for ErrorCode {
    fn from(err: &ServeError) -> ErrorCode {
        match err {
            ServeError::UnknownModel(_) => ErrorCode::UnknownModel,
            ServeError::ShapeMismatch { .. } => ErrorCode::ShapeMismatch,
            ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServeError::Abstained => ErrorCode::Abstained,
            ServeError::Disconnected => ErrorCode::Disconnected,
            ServeError::Io(_) => ErrorCode::BadGateway,
            // `Model` plus any variant added under #[non_exhaustive]: the
            // request was well-formed, the backend failed.
            _ => ErrorCode::Model,
        }
    }
}

impl From<&LearnError> for ErrorCode {
    fn from(err: &LearnError) -> ErrorCode {
        match err {
            LearnError::QueueFull { .. } => ErrorCode::Overloaded,
            LearnError::ShuttingDown => ErrorCode::Disconnected,
            _ => ErrorCode::BadRequest,
        }
    }
}

/// A failure with its code and the message a client reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// What went wrong; decides the HTTP status.
    pub code: ErrorCode,
    /// Human-readable message for the JSON error body.
    pub message: String,
    /// Optional `Allow` header value (405 responses).
    pub allow: Option<&'static str>,
}

impl ApiError {
    /// Build an error with a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
            allow: None,
        }
    }

    /// A [`ErrorCode::BadRequest`] with `message`.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::BadRequest, message)
    }

    /// The HTTP status to answer with: [`ErrorCode::status`].
    pub fn status(&self) -> u16 {
        self.code.status()
    }

    /// Render as the uniform JSON error response:
    /// `{"error": "...", "status": N}`.
    pub fn into_response(self) -> Response {
        let status = self.status();
        let body = Json::Obj(vec![
            ("error".into(), Json::str(self.message)),
            ("status".into(), Json::u64(u64::from(status))),
        ])
        .render();
        let mut response = Response::json(status, body);
        if let Some(allow) = self.allow {
            response.extra_headers.push(("allow", allow.to_string()));
        }
        response
    }
}

impl From<ServeError> for ApiError {
    fn from(err: ServeError) -> ApiError {
        ApiError::new(ErrorCode::from(&err), err.to_string())
    }
}

impl From<LearnError> for ApiError {
    fn from(err: LearnError) -> ApiError {
        ApiError::new(ErrorCode::from(&err), err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_errors_map_to_documented_statuses() {
        let status = |err: ServeError| ApiError::from(err).status();
        assert_eq!(status(ServeError::UnknownModel("m".into())), 404);
        assert_eq!(
            status(ServeError::ShapeMismatch {
                expected: 28,
                got: 2
            }),
            400
        );
        assert_eq!(status(ServeError::DeadlineExceeded), 504);
        assert_eq!(status(ServeError::Abstained), 204);
        assert_eq!(status(ServeError::Disconnected), 503);
        assert_eq!(status(ServeError::Io("gone".into())), 502);
        assert_eq!(status(ServeError::Model("bad".into())), 500);
    }

    #[test]
    fn learn_errors_map_to_documented_statuses() {
        let status = |err: LearnError| ApiError::from(err).status();
        assert_eq!(status(LearnError::QueueFull { capacity: 8 }), 429);
        assert_eq!(status(LearnError::ShuttingDown), 503);
        assert_eq!(status(LearnError::BadBatch("empty".into())), 400);
        assert_eq!(
            status(LearnError::ShapeMismatch {
                expected: 28,
                got: 2
            }),
            400
        );
    }

    #[test]
    fn every_code_round_trips_through_its_byte() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        let after_last = ErrorCode::ALL[ErrorCode::ALL.len() - 1] as u8 + 1;
        assert_eq!(ErrorCode::from_u8(after_last), None);
        assert_eq!(ErrorCode::from_u8(0), None);
    }

    #[test]
    fn error_response_is_json_with_the_status_echoed() {
        let response = ApiError::from(ServeError::UnknownModel("higgs".into())).into_response();
        assert_eq!(response.status, 404);
        let body = String::from_utf8(response.body).unwrap();
        let doc = crate::json::parse(&body).unwrap();
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("higgs"));
        assert_eq!(doc.get("status").unwrap().as_u64(), Some(404));
    }

    #[test]
    fn allow_header_is_attached_when_set() {
        let mut err = ApiError::new(ErrorCode::MethodNotAllowed, "nope");
        err.allow = Some("GET");
        let response = err.into_response();
        assert_eq!(response.status, 405);
        assert!(response
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "allow" && v == "GET"));
    }
}
