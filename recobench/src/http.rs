//! A minimal keep-alive HTTP/1.1 client and `/metrics` readers.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout: a stalled server fails the request instead of hanging
/// the benchmark.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// One client connection, reopened when the server closes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened so far.
    pub connects: u64,
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.to_string())
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::new(),
            connects: 0,
        }
    }

    /// One request/response round trip; returns status and body.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        request_id: &str,
    ) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, SOCKET_TIMEOUT)?;
            stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
            stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.connects += 1;
        }
        let result = self.exchange(method, path, body, request_id);
        if !matches!(result, Ok((_, _, false))) {
            self.stream = None;
        }
        result.map(|(status, body, _)| (status, body))
    }

    /// Writes one request and reads its response; the flag says whether
    /// the connection stays open.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        request_id: &str,
    ) -> std::io::Result<(u16, String, bool)> {
        let stream = self.stream.as_mut().expect("connected by the caller");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: recobench\r\nX-Request-Id: {request_id}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;

        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| invalid("non-UTF-8 response head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let body_start = header_end + 4;
        while self.buf.len() < body_start + length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[body_start..body_start + length]).into_owned();
        Ok((status, body, close))
    }
}

/// Sum of every series of `family` whose name, labels included, starts
/// with `series` in a Prometheus text exposition (labelled families add up
/// across their label values).
pub fn scrape(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            let exact = name == series;
            let labelled = name.starts_with(series) && name[series.len()..].starts_with('{');
            (exact || labelled).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Change of one histogram between two scrapes: `(count, sum)`.
pub fn histogram_delta(before: &str, after: &str, family: &str) -> (f64, f64) {
    let count = format!("{family}_count");
    let sum = format!("{family}_sum");
    (
        scrape(after, &count) - scrape(before, &count),
        scrape(after, &sum) - scrape(before, &sum),
    )
}

/// Mean of one histogram between two scrapes, in milliseconds (0 without
/// observations).
pub fn histogram_mean_ms(before: &str, after: &str, family: &str) -> f64 {
    let (count, sum) = histogram_delta(before, after, family);
    if count > 0.0 {
        sum / count * 1e3
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_adds_labelled_series_and_skips_prefix_collisions() {
        let text = "# HELP x\nrecopack_jobs_rejected_total{kind=\"opp\"} 2\n\
                    recopack_jobs_rejected_total{kind=\"bmp\"} 3\n\
                    recopack_jobs_rejected_totalx 100\nh_sum 0.5\nh_count 4\n";
        assert_eq!(scrape(text, "recopack_jobs_rejected_total"), 5.0);
        assert_eq!(histogram_mean_ms("", text, "h"), 125.0);
    }
}
