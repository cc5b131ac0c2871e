//! Route table: `(method, path)` → endpoint.
//!
//! The surface is small enough that an explicit match beats a generic
//! framework: six endpoints, each with a fixed shape. Unknown paths are
//! 404 and known paths with the wrong method are 405 (with the allowed
//! methods named), decided *before* any body parsing — a misrouted
//! request never costs worker time.

use crate::error::{ApiError, ErrorCode};

/// One resolved endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz` — liveness probe.
    Healthz,
    /// `GET /metrics` — Prometheus scrape of serving + gateway metrics.
    Metrics,
    /// `GET /v1/models` — registry listing with versions.
    ListModels,
    /// `POST /v1/models/{name}/predict` — micro-batched inference.
    Predict(String),
    /// `PUT /v1/models/{name}` — hot-swap a persisted artifact.
    Publish(String),
    /// `POST /v1/models/{name}/learn` — feed labeled rows to the model's
    /// online learner.
    Learn(String),
}

/// Model names accepted on the wire: non-empty, ASCII alphanumerics plus
/// `-`, `_`, and `.` — names that are unambiguous inside a path segment
/// and a Prometheus label.
pub fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// Resolve a request line to an endpoint, or to the refusal the front
/// answers with: `NotFound`, `MethodNotAllowed` naming the allowed
/// method, or `BadRequest` for a bad model name.
pub fn route(method: &str, path: &str) -> Result<Route, ApiError> {
    let only = |allowed: &'static str, route: Route| {
        if method == allowed {
            Ok(route)
        } else {
            let message = format!("{method} is not allowed here (allow: {allowed})");
            Err(ApiError {
                allow: Some(allowed),
                ..ApiError::new(ErrorCode::MethodNotAllowed, message)
            })
        }
    };
    let not_found = || {
        let message = format!("no endpoint at {path:?}");
        Err(ApiError::new(ErrorCode::NotFound, message))
    };
    match path {
        "/healthz" => return only("GET", Route::Healthz),
        "/metrics" => return only("GET", Route::Metrics),
        "/v1/models" => return only("GET", Route::ListModels),
        _ => {}
    }
    let Some(rest) = path.strip_prefix("/v1/models/") else {
        return not_found();
    };
    let mut segments = rest.split('/');
    let name = segments.next().unwrap_or("");
    let (allowed, route): (_, fn(String) -> Route) = match (segments.next(), segments.next()) {
        // /v1/models/{name}
        (None, _) => ("PUT", Route::Publish),
        // /v1/models/{name}/predict
        (Some("predict"), None) => ("POST", Route::Predict),
        // /v1/models/{name}/learn
        (Some("learn"), None) => ("POST", Route::Learn),
        _ => return not_found(),
    };
    if !valid_model_name(name) {
        return Err(ApiError::bad_request(format!(
            "invalid model name {name:?}"
        )));
    }
    only(allowed, route(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The code and `Allow` header a refused request line answers with.
    fn refusal(method: &str, path: &str) -> (ErrorCode, Option<&'static str>) {
        let err = route(method, path).expect_err("the route is refused");
        (err.code, err.allow)
    }

    #[test]
    fn fixed_routes_resolve() {
        assert_eq!(route("GET", "/healthz"), Ok(Route::Healthz));
        assert_eq!(route("GET", "/metrics"), Ok(Route::Metrics));
        assert_eq!(route("GET", "/v1/models"), Ok(Route::ListModels));
    }

    #[test]
    fn model_routes_capture_the_name() {
        assert_eq!(
            route("POST", "/v1/models/higgs/predict"),
            Ok(Route::Predict("higgs".into()))
        );
        assert_eq!(
            route("PUT", "/v1/models/higgs-v2.1"),
            Ok(Route::Publish("higgs-v2.1".into()))
        );
        assert_eq!(
            route("POST", "/v1/models/higgs/learn"),
            Ok(Route::Learn("higgs".into()))
        );
        assert_eq!(
            refusal("GET", "/v1/models/higgs/learn"),
            (ErrorCode::MethodNotAllowed, Some("POST"))
        );
    }

    #[test]
    fn wrong_methods_name_the_allowed_one() {
        assert_eq!(
            refusal("POST", "/healthz"),
            (ErrorCode::MethodNotAllowed, Some("GET"))
        );
        assert_eq!(
            refusal("GET", "/v1/models/higgs/predict"),
            (ErrorCode::MethodNotAllowed, Some("POST"))
        );
        assert_eq!(
            refusal("DELETE", "/v1/models/higgs"),
            (ErrorCode::MethodNotAllowed, Some("PUT"))
        );
    }

    #[test]
    fn unknown_paths_are_not_found() {
        for path in [
            "/",
            "/v1",
            "/v1/models/",
            "/v1/models/higgs/predict/extra",
            "/v1/models/higgs/nope",
            "/metricsx",
        ] {
            let (code, _) = refusal("GET", path);
            assert!(
                matches!(code, ErrorCode::NotFound | ErrorCode::BadRequest),
                "{path:?} resolved to {code:?}"
            );
        }
    }

    #[test]
    fn hostile_model_names_are_rejected() {
        for name in ["", "a b", "a\"b", "héggs", &"x".repeat(200)] {
            let path = format!("/v1/models/{name}/predict");
            let (code, _) = refusal("POST", &path);
            assert!(
                matches!(code, ErrorCode::BadRequest | ErrorCode::NotFound),
                "{name:?} resolved to {code:?}"
            );
        }
    }
}
