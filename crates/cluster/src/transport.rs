//! The wire boundary of the gateway: a [`Transport`] is "send one HTTP
//! request to one shard, get one response back".
//!
//! The gateway core never touches sockets directly — it speaks through
//! this trait, so the same routing/failover logic runs over the real
//! [`HttpTransport`] in production and over a deterministic in-memory
//! fault-injecting transport under `iis fuzz --layer gateway`.

use std::time::Duration;

/// One response as the gateway sees it: a numeric status plus the body
/// text. Transport-level failures (connect refused, deadline, short read
/// of the head) are `Err` — they carry no status at all.
#[derive(Clone, Debug)]
pub struct TransportResponse {
    /// Numeric HTTP status (`200`, `503`, …).
    pub status: u16,
    /// The response body, lossily decoded as UTF-8.
    pub body: String,
}

/// A transport error: the request produced no response at all.
pub type TransportError = String;

/// The gateway's view of the network: blocking request/response against a
/// shard named by its `host:port` address.
pub trait Transport: Send + Sync {
    /// `GET {path}` against `shard`.
    ///
    /// # Errors
    ///
    /// `Err` when no response arrived (connect failure, deadline, torn
    /// read); HTTP error statuses are `Ok` responses.
    fn get(&self, shard: &str, path: &str) -> Result<TransportResponse, TransportError>;

    /// `POST {path}` with a JSON body against `shard`.
    ///
    /// # Errors
    ///
    /// `Err` when no response arrived (connect failure, deadline, torn
    /// read); HTTP error statuses are `Ok` responses.
    fn post(
        &self,
        shard: &str,
        path: &str,
        body: &str,
    ) -> Result<TransportResponse, TransportError>;
}

/// The production transport: `iis_obs::http::Client` with its per-host
/// keep-alive pool, so a gateway under load holds a few warm connections
/// per shard instead of a TCP handshake per question.
pub struct HttpTransport {
    client: iis_obs::http::Client,
}

impl HttpTransport {
    /// A transport whose requests must complete within `deadline`.
    pub fn new(deadline: Duration) -> HttpTransport {
        HttpTransport {
            client: iis_obs::http::Client::new().with_deadline(deadline),
        }
    }
}

fn convert(r: iis_obs::http::ClientResponse) -> TransportResponse {
    TransportResponse {
        status: r.status,
        body: String::from_utf8_lossy(&r.body).into_owned(),
    }
}

impl Transport for HttpTransport {
    fn get(&self, shard: &str, path: &str) -> Result<TransportResponse, TransportError> {
        self.client
            .get(shard, path)
            .map(convert)
            .map_err(|e| e.to_string())
    }

    fn post(
        &self,
        shard: &str,
        path: &str,
        body: &str,
    ) -> Result<TransportResponse, TransportError> {
        self.client
            .post_json(shard, path, body)
            .map(convert)
            .map_err(|e| e.to_string())
    }
}
