//! The load generator: one request per connection (the server closes
//! after every response), timed client-side, with a span around each
//! step, plus the open-loop schedule.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::span::Tracer;

/// A response as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Client-side spans of one request, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// `connect()` returning.
    pub connect_ns: u64,
    /// Last request byte written → first response byte read: accept
    /// queue, parse, handler and the first write, seen from outside.
    pub ttfb_ns: u64,
    /// Before `connect()` → connection closed by the server.
    pub total_ns: u64,
}

pub fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n")
}

pub fn post(path: &str) -> String {
    format!("POST {path} HTTP/1.1\r\nHost: b\r\nContent-Length: 0\r\n\r\n")
}

/// Send `request` on a fresh connection and read the whole response.
/// Spans: `server.request` → `server.connect` / `server.write` /
/// `server.ttfb` / `server.read`.
pub fn roundtrip(
    addr: SocketAddr,
    request: &str,
    tracer: &mut Tracer,
) -> io::Result<(Reply, Timing)> {
    tracer.begin("server.request");
    let result = roundtrip_spans(addr, request, tracer);
    tracer.end();
    result
}

fn roundtrip_spans(
    addr: SocketAddr,
    request: &str,
    tracer: &mut Tracer,
) -> io::Result<(Reply, Timing)> {
    let started = Instant::now();
    tracer.begin("server.connect");
    let stream = TcpStream::connect(addr);
    tracer.end();
    let mut stream = stream?;
    let connect_ns = started.elapsed().as_nanos() as u64;
    stream.set_nodelay(true)?;
    // A hung server must fail the request, not the whole benchmark run.
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;

    tracer.begin("server.write");
    let written = stream.write_all(request.as_bytes());
    tracer.end();
    written?;

    let sent = Instant::now();
    let mut response = Vec::with_capacity(2048);
    let mut first = [0u8; 2048];
    tracer.begin("server.ttfb");
    let n = stream.read(&mut first);
    tracer.end();
    let n = n?;
    let ttfb_ns = sent.elapsed().as_nanos() as u64;
    response.extend_from_slice(&first[..n]);

    tracer.begin("server.read");
    let rest = if n == 0 {
        Ok(0)
    } else {
        stream.read_to_end(&mut response)
    };
    tracer.end();
    rest?;
    let total_ns = started.elapsed().as_nanos() as u64;

    let text = String::from_utf8_lossy(&response);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((
        Reply { status, body },
        Timing {
            connect_ns,
            ttfb_ns,
            total_ns,
        },
    ))
}

/// An open-loop schedule: request `k` is due at `start + k · interval`
/// whether or not earlier ones have finished. Independent users do not
/// wait for each other, so a stall in the server must show up as latency
/// of every request that was due during it — each request is timed from
/// its due time, not from when the generator got round to sending it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    next: u32,
}

/// How one open-loop request went, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// Due time → response complete. The number users experience.
    pub latency_ns: u64,
    /// Due time → actually sent. How late the generator ran; when this
    /// is large the generator, not the server, is the bottleneck.
    pub late_ns: u64,
}

impl OpenLoop {
    pub fn new(start: Instant, rate_per_s: u32) -> Self {
        assert!(rate_per_s > 0, "open loop needs a positive rate");
        OpenLoop {
            start,
            interval: Duration::from_secs(1) / rate_per_s,
            next: 0,
        }
    }

    /// Due time of the next request; advances the schedule by exactly
    /// one interval, never skipping requests the generator is late for.
    pub fn next_due(&mut self) -> Instant {
        let due = self.start + self.interval * self.next;
        self.next += 1;
        due
    }

    /// Sleep until `due` (returns at once when it has passed).
    pub fn wait_until(due: Instant) {
        if let Some(left) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(left);
        }
    }

    /// Account one request that was due at `due`, sent at `sent` and
    /// complete at `done`.
    pub fn sample(due: Instant, sent: Instant, done: Instant) -> OpenLoopSample {
        OpenLoopSample {
            latency_ns: done.saturating_duration_since(due).as_nanos() as u64,
            late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        let start = Instant::now();
        let mut sched = OpenLoop::new(start, 1000); // 1 ms apart
        let dues: Vec<Instant> = (0..4).map(|_| sched.next_due()).collect();
        assert_eq!(dues[3] - dues[0], Duration::from_millis(3));

        // Request 0 stalls for 2.5 ms; the single sender can only start
        // 1 and 2 after it, each taking 0.1 ms.
        let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
        let done0 = dues[0] + ms(2.5);
        let s0 = OpenLoop::sample(dues[0], dues[0], done0);
        assert_eq!(s0.late_ns, 0);
        assert_eq!(s0.latency_ns, 2_500_000);

        let (sent1, done1) = (done0, done0 + ms(0.1));
        let s1 = OpenLoop::sample(dues[1], sent1, done1);
        assert_eq!(s1.late_ns, 1_500_000);
        // A closed loop would have reported 0.1 ms here.
        assert_eq!(s1.latency_ns, 1_600_000);

        let (sent2, done2) = (done1, done1 + ms(0.1));
        let s2 = OpenLoop::sample(dues[2], sent2, done2);
        assert_eq!(s2.late_ns, 600_000);
        assert_eq!(s2.latency_ns, 700_000);

        // Request 3 is due after the backlog cleared: sent on time.
        let s3 = OpenLoop::sample(dues[3], dues[3], dues[3] + ms(0.1));
        assert_eq!(s3.late_ns, 0);
        assert_eq!(s3.latency_ns, 100_000);
    }

    #[test]
    fn request_lines_are_what_the_server_parses() {
        assert_eq!(
            get("/plan?p=1"),
            "GET /plan?p=1 HTTP/1.1\r\nHost: b\r\n\r\n"
        );
        assert!(post("/run").contains("Content-Length: 0"));
    }
}
