//! Session runners: the synchronous line loop (tests, batch mode), the
//! signal-aware stdio loop, and the `--listen` unix-socket front end.
//!
//! All runners funnel frames into **one** session thread — the warm
//! cache and session budget are single-owner state — and differ only in
//! where frames come from and where responses go. Graceful shutdown is
//! the same everywhere:
//!
//! 1. EOF on stdin (or SIGTERM/SIGINT) stops intake.
//! 2. Frames already received keep draining, each answered normally.
//! 3. A watchdog thread arms on the first shutdown signal; when the
//!    drain deadline passes it cancels the session's shutdown token
//!    (new admissions now refuse with `shutting_down`) **and** the
//!    in-flight request's own [`tbf_core::CancelToken`], degrading it to sound
//!    bounds at the next budget poll instead of blocking exit.
//! 4. The final session-metrics artifact is emitted, and the process
//!    exits 0 — a drained EOF is a success, not a crash.

use std::io::{self, BufRead, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use crate::protocol::ServeError;
use crate::session::{ServeConfig, Session};

/// Runner-level (not per-request) settings from the CLI.
#[derive(Clone, Debug, Default)]
pub struct RunnerConfig {
    /// Serve a unix socket at this path instead of stdin/stdout.
    pub listen: Option<String>,
    /// Write the final session artifact here (pretty JSON). Set, it also
    /// makes the runner observe each frame, so the artifact's request
    /// rows carry their effort counters.
    pub emit_metrics: Option<String>,
    /// Suppress the shutdown summary on stderr.
    pub quiet: bool,
}

/// Runs a batch of frames through `session` synchronously, writing one
/// response line per non-empty frame. Blank frames are skipped (they
/// are keep-alives, not requests). This is the deterministic core the
/// stdio/socket runners and every test drive.
///
/// # Errors
/// Propagates write failures on `out`; request-level failures become
/// error response lines instead.
pub fn run_lines<I>(session: &mut Session, lines: I, out: &mut dyn Write) -> io::Result<()>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    for line in lines {
        let line = line.as_ref();
        if line.trim().is_empty() {
            continue;
        }
        let response = session.handle_line(line);
        writeln!(out, "{response}")?;
    }
    out.flush()
}

/// One frame as read off a stream: its text, or the typed error that
/// refused it before decoding (`frame_too_large`, `malformed_frame`).
type Frame = Result<String, ServeError>;

/// Reads the next LF-terminated frame from `input`, holding at most
/// `max_frame_bytes` of it: the rest of an over-cap frame is counted and
/// discarded up to the next LF, so a stream without newlines cannot grow
/// memory. An over-cap frame comes back as `frame_too_large` and a
/// frame that is not UTF-8 as `malformed_frame`; either way `input` is
/// left at the start of the next frame. `None` at EOF.
fn read_frame(input: &mut impl BufRead, max_frame_bytes: usize) -> io::Result<Option<Frame>> {
    let mut frame = Vec::new();
    let mut len = 0usize;
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            if len == 0 {
                return Ok(None);
            }
            break;
        }
        let lf = buf.iter().position(|&b| b == b'\n');
        let chunk = &buf[..lf.unwrap_or(buf.len())];
        let room = max_frame_bytes.saturating_sub(frame.len());
        frame.extend_from_slice(&chunk[..chunk.len().min(room)]);
        len += chunk.len();
        let used = chunk.len() + usize::from(lf.is_some());
        input.consume(used);
        if lf.is_some() {
            break;
        }
    }
    if len > max_frame_bytes {
        return Ok(Some(Err(ServeError::FrameTooLarge {
            bytes: len,
            cap: max_frame_bytes,
        })));
    }
    Ok(Some(String::from_utf8(frame).map_err(|e| {
        ServeError::MalformedFrame {
            detail: format!(
                "frame is not valid UTF-8 (bad byte at offset {})",
                e.utf8_error().valid_up_to()
            ),
        }
    })))
}

/// Answers one frame, inside its own `observe` when the session's
/// artifact will be written: the frame's row then carries the counters
/// of its analysis alone.
fn handle_frame(session: &mut Session, frame: Frame, runner: &RunnerConfig) -> String {
    let answer = move || match frame {
        Ok(line) => session.handle_line(&line),
        Err(err) => session.refuse_frame(err),
    };
    if runner.emit_metrics.is_some() {
        tbf_core::obs::observe(answer).0
    } else {
        answer()
    }
}

/// Whether a frame is a blank keep-alive, skipped without an answer.
fn is_blank(frame: &Frame) -> bool {
    frame.as_ref().is_ok_and(|line| line.trim().is_empty())
}

/// How often the session loop wakes to poll the shutdown flag while
/// idle. Short enough that SIGTERM feels immediate, long enough to cost
/// nothing.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Arms the drain watchdog: when `drain` expires, refuse new work and
/// cancel whatever request is still in flight.
fn arm_drain_watchdog(session: &Session, drain: Duration) {
    let shutdown = session.shutdown_token();
    let live = session.live_request_handle();
    thread::spawn(move || {
        thread::sleep(drain);
        shutdown.cancel();
        if let Ok(guard) = live.lock() {
            if let Some(token) = guard.as_ref() {
                token.cancel();
            }
        }
    });
}

/// Emits the final artifact and shutdown summary.
fn finish(session: &Session, runner: &RunnerConfig) -> io::Result<()> {
    let artifact = session.final_artifact();
    if let Some(path) = &runner.emit_metrics {
        std::fs::write(path, artifact.to_value().to_pretty())?;
    }
    if !runner.quiet {
        let m = session.metrics();
        let c = session.cache_stats();
        eprintln!(
            "tbf serve: drained after {} frames ({} ok, {} errors, {} retries, {} panics caught, \
             cache {}/{} hits)",
            m.frames,
            m.ok,
            m.errors,
            m.retries,
            m.panics_caught,
            c.hits,
            c.hits + c.misses
        );
    }
    Ok(())
}

/// The stdin/stdout request loop: frames in on stdin, responses out on
/// stdout, shutdown on EOF or SIGTERM/SIGINT, exit code as the process
/// exit status (always 0 for a drained session).
///
/// # Errors
/// Propagates stdout/metrics write failures; everything request-shaped
/// is answered in-band.
pub fn serve_stdio(config: ServeConfig, runner: &RunnerConfig) -> io::Result<i32> {
    let drain = config.drain;
    let max_frame_bytes = config.max_frame_bytes;
    let mut session = Session::new(config);
    signal::install();

    // stdin reads cannot be interrupted portably, so a reader thread
    // owns the blocking reads and the session thread owns the clock:
    // `recv_timeout` bounds every wait, keeping the loop responsive to
    // signals even when no input arrives. Dropping the receiver on exit
    // unblocks nothing — the reader dies with the process, which is
    // fine because by then every received frame has been answered.
    let (frames_tx, frames_rx) = mpsc::channel::<Frame>();
    thread::spawn(move || {
        let mut stdin = io::stdin().lock();
        while let Ok(Some(frame)) = read_frame(&mut stdin, max_frame_bytes) {
            if frames_tx.send(frame).is_err() {
                break;
            }
        }
    });

    let stdout = io::stdout();
    let mut out = stdout.lock();
    let mut draining = false;
    loop {
        if signal::triggered() && !draining {
            draining = true;
            arm_drain_watchdog(&session, drain);
        }
        match frames_rx.recv_timeout(IDLE_POLL) {
            Ok(frame) => {
                if is_blank(&frame) {
                    continue;
                }
                let response = handle_frame(&mut session, frame, runner);
                writeln!(out, "{response}")?;
                out.flush()?;
            }
            Err(RecvTimeoutError::Disconnected) => break, // EOF: drained
            Err(RecvTimeoutError::Timeout) => {
                if draining {
                    // Signal received and the queue is empty: done.
                    break;
                }
            }
        }
    }
    finish(&session, runner)?;
    Ok(0)
}

/// The `--listen` unix-socket front end: accepts connections, reads
/// LF-delimited frames from each, and answers on the same stream.
/// Frames from all connections funnel into the single session thread,
/// so warm state is shared and responses are totally ordered by arrival.
///
/// # Errors
/// Fails on bind errors; per-connection I/O errors drop that connection
/// only.
#[cfg(unix)]
pub fn serve_unix_socket(
    config: ServeConfig,
    runner: &RunnerConfig,
    path: &str,
) -> io::Result<i32> {
    use std::os::unix::net::UnixListener;

    let drain = config.drain;
    let max_frame_bytes = config.max_frame_bytes;
    let mut session = Session::new(config);
    signal::install();
    // A stale socket from a previous run would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;

    let (frames_tx, frames_rx) = mpsc::channel::<(Frame, mpsc::Sender<String>)>();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let frames_tx = frames_tx.clone();
            thread::spawn(move || {
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let mut write_half = stream;
                let mut reader = io::BufReader::new(read_half);
                while let Ok(Some(frame)) = read_frame(&mut reader, max_frame_bytes) {
                    if is_blank(&frame) {
                        continue;
                    }
                    let (reply_tx, reply_rx) = mpsc::channel();
                    if frames_tx.send((frame, reply_tx)).is_err() {
                        break; // session is gone; drop the connection
                    }
                    let Ok(response) = reply_rx.recv() else { break };
                    if writeln!(write_half, "{response}").is_err() {
                        break;
                    }
                    let _ = write_half.flush();
                }
            });
        }
    });

    let mut draining = false;
    loop {
        if signal::triggered() && !draining {
            draining = true;
            arm_drain_watchdog(&session, drain);
        }
        match frames_rx.recv_timeout(IDLE_POLL) {
            Ok((frame, reply_tx)) => {
                let response = handle_frame(&mut session, frame, runner);
                // A client that hung up mid-request just loses its
                // response; the session carries on.
                let _ = reply_tx.send(response);
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                if draining && session.shutdown_token().is_cancelled() {
                    // Drain deadline passed and the queue is idle.
                    break;
                }
            }
        }
    }
    finish(&session, runner)?;
    let _ = std::fs::remove_file(path);
    Ok(0)
}

/// Stub for non-unix targets: `--listen` is a unix-socket feature.
#[cfg(not(unix))]
pub fn serve_unix_socket(
    _config: ServeConfig,
    _runner: &RunnerConfig,
    _path: &str,
) -> io::Result<i32> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "--listen requires a unix target",
    ))
}

/// SIGTERM/SIGINT latch. The handler only stores an atomic flag — the
/// session loop polls it between frames — because almost nothing else
/// is async-signal-safe.
#[cfg(unix)]
#[allow(unsafe_code)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    /// Installs the latch for SIGTERM and SIGINT. Idempotent.
    pub fn install() {
        extern "C" {
            // libc's classic `signal(2)`: takes and returns a handler
            // pointer; declared pointer-sized so no libc crate is
            // needed. The return value (the previous handler) is unused.
            fn signal(signum: i32, handler: usize) -> usize;
        }
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }
}

/// No-signal stub for non-unix targets: only EOF drains the session.
#[cfg(not(unix))]
mod signal {
    /// No-op.
    pub fn install() {}

    /// Always `false`.
    pub fn triggered() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::validate_response;

    #[test]
    fn run_lines_answers_every_nonempty_frame() {
        let mut session = Session::new(ServeConfig::default());
        let frames = [
            r#"{"id":"a","circuit":"INPUT(x)\nOUTPUT(f)\nf = NOT(x)\n"}"#,
            "",
            "   ",
            "not json",
            r#"{"id":"b","circuit":"INPUT(x)\nOUTPUT(f)\nf = NOT(x)\n"}"#,
        ];
        let mut out = Vec::new();
        run_lines(&mut session, frames, &mut out).expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "blank frames are skipped, not answered");
        for line in &lines {
            validate_response(line).expect("schema-valid");
        }
        assert_eq!(session.metrics().ok, 2);
        assert_eq!(session.metrics().errors, 1);
    }

    #[test]
    fn read_frame_refuses_bad_bytes_and_keeps_reading() {
        let bytes = b"\xff\xfe{}\nfirst\n0123456789ab\nsecond\n\nlast";
        // A 3-byte buffer makes every frame span several reads.
        for capacity in [3, 64] {
            let mut input = io::BufReader::with_capacity(capacity, &bytes[..]);
            let mut next = || read_frame(&mut input, 8).expect("a slice reads");
            assert!(
                matches!(next(), Some(Err(ServeError::MalformedFrame { .. }))),
                "not UTF-8"
            );
            assert_eq!(next(), Some(Ok("first".to_owned())));
            assert_eq!(
                next(),
                Some(Err(ServeError::FrameTooLarge { bytes: 12, cap: 8 }))
            );
            assert_eq!(next(), Some(Ok("second".to_owned())));
            assert_eq!(next(), Some(Ok(String::new())));
            assert_eq!(next(), Some(Ok("last".to_owned())), "unterminated tail");
            assert_eq!(next(), None);
        }
    }
}
