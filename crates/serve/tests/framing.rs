//! Framing regressions.
//!
//! - Resumable decoding (the framing-desync bugfix): a client that dribbles
//!   a frame one byte at a time, with pauses longer than the daemon's
//!   250 ms read timeout, must still get its request parsed — the
//!   handler's persistent [`protocol::FrameReader`] holds the partial
//!   bytes across timeouts instead of discarding them.
//! - One write per frame: a frame split over two writes stalls on the
//!   peer's delayed ACK under Nagle's algorithm.
//! - Nesting limit: a frame of deeply nested JSON is a `bad_request`, not
//!   a stack overflow that aborts the daemon.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

use wp_experiments::PointService;
use wp_serve::protocol::{self, FrameReader};
use wp_serve::server::{self, Listen, RunningServer, ServerConfig};

/// Longer than the daemon's 250 ms idle read timeout, so every byte of the
/// dribble forces a mid-frame timeout in the handler.
const DRIBBLE_PAUSE: Duration = Duration::from_millis(300);

fn start() -> RunningServer {
    let mut config = ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), PointService::new());
    config.workers = 1;
    server::start(config).expect("daemon starts on an ephemeral port")
}

/// Encodes `payload` as one wire frame (length prefix plus body).
fn frame_bytes(payload: &str) -> Vec<u8> {
    let mut framed = Vec::new();
    protocol::write_frame(&mut framed, payload.as_bytes()).expect("in-memory frame");
    framed
}

/// Reads one response payload off the raw socket.
fn read_response(stream: &mut TcpStream) -> String {
    let mut frames = FrameReader::new();
    loop {
        match frames.read(stream) {
            Ok(Some(payload)) => {
                return String::from_utf8(payload).expect("response is UTF-8");
            }
            Ok(None) => panic!("the daemon closed the connection without responding"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

#[test]
fn a_frame_dribbled_one_byte_per_300ms_still_parses() {
    let server = start();
    let mut stream = TcpStream::connect(server.addr()).expect("raw client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");

    // Dribble the whole frame — 4-byte length prefix and payload alike —
    // one byte per 300 ms. Before the fix, every 250 ms handler timeout
    // threw away the bytes read so far, so this frame could never complete.
    let payload = "{\"v\":1,\"id\":21,\"type\":\"health\"}";
    for &byte in &frame_bytes(payload) {
        stream.write_all(&[byte]).expect("dribbled byte sends");
        stream.flush().expect("dribbled byte flushes");
        std::thread::sleep(DRIBBLE_PAUSE);
    }
    let response = read_response(&mut stream);
    assert_eq!(
        response,
        protocol::health_response(21, &server.service().cache_health(), 0, 0, 0, false),
        "the dribbled frame must parse as if sent in one write"
    );

    // The connection state is clean afterwards: a normal request on the
    // same socket still round-trips.
    stream
        .write_all(&frame_bytes("{\"v\":1,\"id\":22,\"type\":\"health\"}"))
        .expect("follow-up frame sends");
    let response = read_response(&mut stream);
    assert!(
        response.contains("\"id\":22"),
        "the follow-up request gets its own response: {response}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn a_mid_frame_pause_straddling_many_timeouts_keeps_the_payload_intact() {
    let server = start();
    let mut stream = TcpStream::connect(server.addr()).expect("raw client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");

    // Split a frame at the worst spot — inside the length prefix — and
    // again mid-payload, pausing over a second each time (4+ timeouts).
    let framed = frame_bytes("{\"v\":1,\"id\":23,\"type\":\"health\"}");
    let cuts = [2, 10, framed.len()];
    let mut sent = 0;
    for cut in cuts {
        stream.write_all(&framed[sent..cut]).expect("chunk sends");
        stream.flush().expect("chunk flushes");
        sent = cut;
        if sent < framed.len() {
            std::thread::sleep(Duration::from_millis(1_100));
        }
    }
    let response = read_response(&mut stream);
    assert!(
        response.contains("\"id\":23") && response.contains("\"ok\":true"),
        "the split frame parses whole: {response}"
    );

    server.shutdown();
    server.join();
}

/// A sink that records every `write` call it receives.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_frame_goes_out_in_exactly_one_write() {
    let large: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    for payload in [&b""[..], b"{\"v\":1,\"id\":1,\"type\":\"health\"}", &large] {
        let mut sink = CountingWriter::default();
        protocol::write_frame(&mut sink, payload).expect("frame writes");
        assert_eq!(
            sink.writes,
            1,
            "a {}-byte payload must be framed in one write",
            payload.len()
        );
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(payload);
        assert_eq!(sink.bytes, expected, "the wire bytes are length ++ payload");
        let decoded = FrameReader::new()
            .read(&mut sink.bytes.as_slice())
            .expect("frame decodes")
            .expect("one whole frame");
        assert_eq!(decoded, payload, "the frame decodes unchanged");
    }
}

#[test]
fn deeply_nested_json_is_a_bad_request_and_the_daemon_keeps_serving() {
    let server = start();
    let mut stream = TcpStream::connect(server.addr()).expect("raw client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");

    // Half a million `[` fits under the 1 MiB frame cap; an unbounded
    // recursive parser overflows the handler thread's stack on it.
    stream
        .write_all(&frame_bytes(&"[".repeat(500_000)))
        .expect("nested frame sends");
    let message = format!(
        "invalid JSON: recursion limit exceeded at line 1 column {}",
        serde_json::MAX_DEPTH + 1
    );
    assert_eq!(
        read_response(&mut stream),
        protocol::error_response(0, protocol::ErrorCode::BadRequest, &message),
        "the nested frame is refused as a bad request"
    );

    // The daemon is still up: a fresh connection gets its health answer.
    let mut fresh = TcpStream::connect(server.addr()).expect("a new connection is accepted");
    fresh
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    fresh
        .write_all(&frame_bytes("{\"v\":1,\"id\":24,\"type\":\"health\"}"))
        .expect("health frame sends");
    let response = read_response(&mut fresh);
    assert!(
        response.contains("\"id\":24") && response.contains("\"ok\":true"),
        "health still answers after the nested frame: {response}"
    );

    server.shutdown();
    server.join();
}
