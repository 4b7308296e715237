//! A view the attached data does not define is never read as empty. A
//! session's constraint text may register a view rule; the optimizer
//! folds a path into it, and the evaluator reads the view's relation from
//! the data. When the data holds no such access support relation, an
//! executing query must answer the data's own rows or `bad_request` —
//! never 0 rows. Both reproductions go through a spawned `sqo serve`.
#![cfg(unix)]

use semantic_sqo::service::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const A4_RULE: &str =
    "asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W).";
const A4_PATH: &str = "select w from x in Student y in x.takes z in y.is_section_of \
                       v in z.has_sections w in v.has_ta where x.name = \"student3\"";
const TA_RULE: &str = "asr(X, W) <- takes(X, Y), has_ta(Y, W).";
const TA_PATH: &str =
    "select w from x in Student y in x.takes w in y.has_ta where x.name = \"student3\"";

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

    fn ask(&self, line: &str) -> Json {
        let mut stream = TcpStream::connect(&self.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        json::parse(&reply).unwrap()
    }

    fn prepare(&self, session: &str, ic: Option<&str>) {
        let ic = ic.map_or(String::new(), |ic| format!(r#","ic":{ic:?}"#));
        let reply = self.ask(&format!(
            r#"{{"op":"prepare","session":"{session}","university":true,"data":true{ic}}}"#
        ));
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply:?}"
        );
    }

    fn execute(&self, session: &str, oql: &str) -> Json {
        self.ask(&format!(
            r#"{{"op":"query","session":"{session}","execute":true,"oql":{oql:?}}}"#
        ))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn answers(reply: &Json) -> Option<f64> {
    reply.get("answers").and_then(Json::as_f64)
}

/// `reply` is the data's `want` rows, or a `bad_request` naming the view.
fn rows_or_refused(reply: &Json, want: f64, what: &str) {
    if reply.get("ok").and_then(Json::as_bool) == Some(true) {
        assert_eq!(answers(reply), Some(want), "{what}: rows the data holds");
        return;
    }
    let error = reply
        .get("error")
        .unwrap_or_else(|| panic!("{what}: {reply:?}"));
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("bad_request")
    );
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("`asr`"), "{what}: {message}");
}

#[test]
fn a_view_the_data_does_not_define_is_not_read_as_empty() {
    let served = Served::start();
    served.prepare("plain", None);
    let want_a4 = answers(&served.execute("plain", A4_PATH)).unwrap();
    let want_ta = answers(&served.execute("plain", TA_PATH)).unwrap();
    assert!(want_a4 > 0.0 && want_ta > 0.0, "{want_a4} {want_ta}");

    // The session's text defines `asr`; the university data does not.
    served.prepare("folded", Some(A4_RULE));
    let reply = served.execute("folded", A4_PATH);
    rows_or_refused(&reply, want_a4, "a 4-hop path under a prepared view");

    // The same through `reload_ic` of a data session that answered.
    served.prepare("reloaded", None);
    assert_eq!(answers(&served.execute("reloaded", TA_PATH)), Some(want_ta));
    let reload = served.ask(&format!(
        r#"{{"op":"reload_ic","session":"reloaded","ic":{TA_RULE:?}}}"#
    ));
    assert_eq!(
        reload.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reload:?}"
    );
    let reply = served.execute("reloaded", TA_PATH);
    rows_or_refused(&reply, want_ta, "a 2-hop path after reload_ic");

    // A rewrite-only query reads no data: the session still optimizes.
    let rewrite_only = served.ask(&format!(
        r#"{{"op":"query","session":"reloaded","oql":{TA_PATH:?}}}"#
    ));
    assert_eq!(rewrite_only.get("ok").and_then(Json::as_bool), Some(true));
}
