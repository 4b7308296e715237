//! No request line can stop the server. A stack overflow is no panic:
//! nothing catches it, and the whole process aborts with every session
//! in it. So the test runs the built `sqo serve` out of process, sends
//! the lines that once overflowed a serving thread's stack, and asks
//! for an error reply to each and a `ping` answered after it.
#![cfg(unix)]

use semantic_sqo::obs;
use semantic_sqo::service::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A served `sqo`, killed when dropped (a failed assertion included).
struct Served {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Served {
    fn start() -> Served {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sqo"))
            .args(["serve", "--university", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let announce = json::parse(&line).unwrap();
        let addr = announce.get("listening").and_then(Json::as_str).unwrap();
        Served {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        }
    }

    /// Sends `line` on a connection of its own; the reply line, or `""`
    /// when the connection closed without one.
    fn ask(&self, line: &str) -> String {
        let mut stream = TcpStream::connect(&self.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn no_line_can_stop_the_server() {
    let served = Served::start();
    let deep_set = format!(
        "interface C {{ attribute {}long{} a; }};",
        "set<".repeat(50_000),
        ">".repeat(50_000)
    );
    let deep_call = format!(
        "select x.name from x in Person where x.age = {}1{}",
        "x.m(".repeat(5_000),
        ")".repeat(5_000)
    );
    let lines = [
        ("60 000 `[`", "[".repeat(60_000), "bad_request"),
        (
            "a prepare nesting set< 50 000 deep",
            format!(
                r#"{{"op":"prepare","session":"deep","schema":{}}}"#,
                obs::json_string(&deep_set)
            ),
            "bad_request",
        ),
        (
            "a query nesting method calls 5 000 deep",
            format!(r#"{{"op":"query","oql":{}}}"#, obs::json_string(&deep_call)),
            "optimize_error",
        ),
    ];
    for (what, line, want) in lines {
        let reply = served.ask(&line);
        assert!(
            !reply.is_empty(),
            "{what}: the server closed without a reply"
        );
        let reply = json::parse(&reply).unwrap();
        let kind = reply.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(Json::as_str), Some(want), "{what}");
        let pong = served.ask(r#"{"op":"ping"}"#);
        assert_eq!(pong.trim_end(), r#"{"ok":true,"op":"ping"}"#, "{what}");
    }
}
