//! The scrape surface: a minimal TCP listener answering `/metrics` and
//! `/healthz`.
//!
//! [`MetricsServer`] is deliberately not a web framework — it is a
//! single background thread blocked in [`TcpListener::accept`], speaking
//! just enough HTTP/1.1 for a Prometheus scraper or a load balancer's
//! health probe:
//!
//! * `GET /metrics` — the deployment recorder's
//!   [`MetricsSnapshot`](panda_obs::MetricsSnapshot) rendered as
//!   Prometheus text exposition (when a
//!   [`TelemetryRecorder`](panda_obs::TelemetryRecorder) is attached),
//!   followed by the
//!   live health gauges: admission-queue depth, live-request count,
//!   disk-stage backlog, and rejection counts — both fleet-wide and per
//!   server.
//! * `GET /healthz` — the [`HealthSnapshot`](crate::HealthSnapshot)
//!   JSON body. HTTP `200` while the service is `ok` or `degraded`,
//!   `503` once a server's admission queue is at its cap (the next
//!   session request would be refused).
//!
//! Start one with [`PandaService::serve_metrics`](crate::PandaService::serve_metrics)
//! (or [`MetricsServer::start`] against any recorder + gauge pair);
//! bind to port 0 to let the OS pick and read the real address back
//! with [`MetricsServer::addr`].

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use panda_obs::Recorder;

use crate::health::{HealthStatus, ServiceHealth};

/// Per-connection read/write timeout: a stalled scraper cannot wedge
/// the accept loop for longer than this.
const CONN_TIMEOUT: Duration = Duration::from_millis(500);

/// Largest request head we are willing to buffer.
const MAX_HEAD: usize = 8 * 1024;

/// The background scrape listener. Stops (and joins its thread) on
/// [`MetricsServer::stop`] or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and serve `/metrics` from `recorder` and `/healthz`
    /// from `health` until stopped.
    pub fn start(
        addr: impl ToSocketAddrs,
        recorder: Arc<dyn Recorder>,
        health: Arc<ServiceHealth>,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("panda-scrape".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    // `shut` sets the flag, then connects to wake us.
                    if stop_flag.load(Ordering::Acquire) {
                        return;
                    }
                    // One scrape at a time: probes are tiny and a
                    // broken client is bounded by CONN_TIMEOUT.
                    if let Ok(stream) = conn {
                        let _ = serve_conn(stream, recorder.as_ref(), &health);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener and join its thread.
    pub fn stop(mut self) {
        self.shut();
    }

    fn shut(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The thread is blocked in `accept()`: a connection to its own
        // address is what wakes it to see the flag. (If even that fails
        // it cannot be woken; leave it parked rather than hang here.)
        if TcpStream::connect_timeout(&self.addr, CONN_TIMEOUT).is_ok() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shut();
    }
}

/// Serve one connection: read the request head, answer, close.
fn serve_conn(
    mut stream: TcpStream,
    recorder: &dyn Recorder,
    health: &ServiceHealth,
) -> io::Result<()> {
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > MAX_HEAD {
            break;
        }
    }
    let request_line = std::str::from_utf8(&head)
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                metrics_body(recorder, health),
            ),
            "/healthz" => {
                let snap = health.snapshot();
                let status = match snap.status {
                    HealthStatus::Unhealthy => "503 Service Unavailable",
                    HealthStatus::Ok | HealthStatus::Degraded => "200 OK",
                };
                (status, "application/json", snap.to_json())
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// The `/metrics` body: the recorder's store exposition (when it keeps
/// one) plus the health gauges, which exist regardless of the recorder.
fn metrics_body(recorder: &dyn Recorder, health: &ServiceHealth) -> String {
    use std::fmt::Write as _;
    let mut out = match recorder.metrics() {
        Some(snapshot) => snapshot.to_prometheus(),
        None => "# this deployment's recorder keeps no metrics store\n".to_string(),
    };
    let snap = health.snapshot();
    let status_code = match snap.status {
        HealthStatus::Ok => 0,
        HealthStatus::Degraded => 1,
        HealthStatus::Unhealthy => 2,
    };
    let _ = write!(
        out,
        "# HELP panda_health_status Service status (0 ok, 1 degraded, 2 unhealthy).\n\
         # TYPE panda_health_status gauge\n\
         panda_health_status {status_code}\n\
         # HELP panda_admission_queue_depth Requests waiting in each server's admission queue.\n\
         # TYPE panda_admission_queue_depth gauge\n"
    );
    for s in &snap.per_server {
        let _ = writeln!(
            out,
            "panda_admission_queue_depth{{server=\"{}\"}} {}",
            s.server, s.queued
        );
    }
    let _ = write!(
        out,
        "# HELP panda_live_requests Collectives currently live on each server.\n\
         # TYPE panda_live_requests gauge\n"
    );
    for s in &snap.per_server {
        let _ = writeln!(
            out,
            "panda_live_requests{{server=\"{}\"}} {}",
            s.server, s.live
        );
    }
    let _ = write!(
        out,
        "# HELP panda_disk_backlog Subchunks in flight in each server's pinned disk stage.\n\
         # TYPE panda_disk_backlog gauge\n"
    );
    for s in &snap.per_server {
        let _ = writeln!(
            out,
            "panda_disk_backlog{{server=\"{}\"}} {}",
            s.server, s.disk_backlog
        );
    }
    let _ = write!(
        out,
        "# HELP panda_admission_rejects_total Admission rejections since launch.\n\
         # TYPE panda_admission_rejects_total counter\n\
         panda_admission_rejects_total {}\n",
        snap.rejected
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_obs::{Event, OpDir, TelemetryRecorder};

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect scrape listener");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn scrapes_metrics_and_health() {
        let rec = Arc::new(TelemetryRecorder::new());
        rec.record(
            5,
            &Event::RequestIssued {
                request: 1 << 32,
                op: OpDir::Write,
                arrays: 1,
                pipeline_depth: 2,
            },
        );
        let health = Arc::new(ServiceHealth::new(2, 4, 3));
        health.publish(0, 0, 1, 0);
        let server = MetricsServer::start("127.0.0.1:0", rec, Arc::clone(&health))
            .expect("bind scrape listener");
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
        assert!(
            body.contains("panda_events_total"),
            "store families present"
        );
        assert!(body.contains("panda_health_status 0"));
        assert!(body.contains("panda_live_requests{server=\"0\"} 1"));

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("\"status\":\"ok\""));
        panda_obs::json::validate(&body).expect("healthz body is JSON");

        // Queue at cap: unhealthy, 503.
        health.publish(1, 3, 4, 0);
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 503"), "head: {head}");
        assert!(body.contains("\"status\":\"unhealthy\""));
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("panda_health_status 2"));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
    }
}
