//! Route table: `(method, path)` → endpoint.
//!
//! The surface is small enough that an explicit match beats a generic
//! framework: six endpoints, each with a fixed shape. Unknown paths are
//! 404 and known paths with the wrong method are 405 (with the allowed
//! methods named), decided *before* any body parsing — a misrouted
//! request never costs worker time.

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

/// Why routing failed; carries what the server needs for the response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No endpoint lives at this path.
    NotFound,
    /// The path exists but not under this method; names the methods that
    /// are allowed (the `Allow` header value).
    MethodNotAllowed(&'static str),
    /// The model name segment is empty or contains invalid characters.
    BadModelName(String),
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

/// Resolve a request line to an endpoint.
pub fn route(method: &str, path: &str) -> Result<Route, RouteError> {
    match path {
        "/healthz" => {
            return match method {
                "GET" => Ok(Route::Healthz),
                _ => Err(RouteError::MethodNotAllowed("GET")),
            }
        }
        "/metrics" => {
            return match method {
                "GET" => Ok(Route::Metrics),
                _ => Err(RouteError::MethodNotAllowed("GET")),
            }
        }
        "/v1/models" => {
            return match method {
                "GET" => Ok(Route::ListModels),
                _ => Err(RouteError::MethodNotAllowed("GET")),
            }
        }
        _ => {}
    }
    if let Some(rest) = path.strip_prefix("/v1/models/") {
        let mut segments = rest.split('/');
        let name = segments.next().unwrap_or("");
        match (segments.next(), segments.next()) {
            // /v1/models/{name}
            (None, _) => {
                check_name(name)?;
                match method {
                    "PUT" => Ok(Route::Publish(name.to_string())),
                    _ => Err(RouteError::MethodNotAllowed("PUT")),
                }
            }
            // /v1/models/{name}/predict
            (Some("predict"), None) => {
                check_name(name)?;
                match method {
                    "POST" => Ok(Route::Predict(name.to_string())),
                    _ => Err(RouteError::MethodNotAllowed("POST")),
                }
            }
            // /v1/models/{name}/learn
            (Some("learn"), None) => {
                check_name(name)?;
                match method {
                    "POST" => Ok(Route::Learn(name.to_string())),
                    _ => Err(RouteError::MethodNotAllowed("POST")),
                }
            }
            _ => Err(RouteError::NotFound),
        }
    } else {
        Err(RouteError::NotFound)
    }
}

fn check_name(name: &str) -> Result<(), RouteError> {
    if valid_model_name(name) {
        Ok(())
    } else {
        Err(RouteError::BadModelName(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            route("GET", "/v1/models/higgs/learn"),
            Err(RouteError::MethodNotAllowed("POST"))
        );
    }

    #[test]
    fn wrong_methods_name_the_allowed_one() {
        assert_eq!(
            route("POST", "/healthz"),
            Err(RouteError::MethodNotAllowed("GET"))
        );
        assert_eq!(
            route("GET", "/v1/models/higgs/predict"),
            Err(RouteError::MethodNotAllowed("POST"))
        );
        assert_eq!(
            route("DELETE", "/v1/models/higgs"),
            Err(RouteError::MethodNotAllowed("PUT"))
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
            let got = route("GET", path);
            assert!(
                matches!(
                    got,
                    Err(RouteError::NotFound) | Err(RouteError::BadModelName(_))
                ),
                "{path:?} resolved to {got:?}"
            );
        }
    }

    #[test]
    fn hostile_model_names_are_rejected() {
        for name in ["", "a b", "a\"b", "héggs", &"x".repeat(200)] {
            let path = format!("/v1/models/{name}/predict");
            let got = route("POST", &path);
            assert!(
                matches!(
                    got,
                    Err(RouteError::BadModelName(_)) | Err(RouteError::NotFound)
                ),
                "{name:?} resolved to {got:?}"
            );
        }
    }
}
