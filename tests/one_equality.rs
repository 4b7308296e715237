//! A number means one value on the wire, however it is spelled: over a
//! real `sqo_service::Server` socket, an `Employee` created with an
//! integer salary (stored as the `float` attribute's real) is found by
//! `x.salary = 50000`, by `x.salary = 50000.0` and by the closed range
//! around it alike, and an integer age by `x.age = 40` and `x.age = 40.0`
//! alike.

use sqo_obs as obs;
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[test]
fn every_spelling_of_a_number_answers_the_same() {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, None)
        .unwrap();
    registry
        .get("default")
        .unwrap()
        .attach_university_data()
        .unwrap();
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| {
        writeln!(stream, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        json::parse(&resp).unwrap_or_else(|e| panic!("{e}: {resp}"))
    };
    let query = |oql: &str| {
        format!(
            r#"{{"op":"query","execute":true,"oql":{}}}"#,
            obs::json_string(oql)
        )
    };

    let created = ask(
        r#"{"op":"create","class":"Employee","attrs":{"name":"one-equality","age":40,"salary":50000}}"#,
    );
    assert_eq!(created.get("ok"), Some(&Json::Bool(true)), "{created:?}");

    for spellings in [
        [
            "select x.name from x in Employee where x.salary = 50000",
            "select x.name from x in Employee where x.salary = 50000.0",
            "select x.name from x in Employee where x.salary >= 50000 and x.salary <= 50000",
        ],
        [
            "select x.name from x in Person where x.age = 40",
            "select x.name from x in Person where x.age = 40.0",
            "select x.name from x in Person where x.age >= 40.0 and x.age <= 40.0",
        ],
    ] {
        let counts = spellings.map(|oql| {
            let reply = ask(&query(oql));
            reply
                .get("answers")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{oql}: {reply:?}"))
        });
        assert!(counts[0] > 0, "the created employee answers: {spellings:?}");
        assert_eq!(counts, [counts[0]; 3], "{spellings:?}");
    }

    ask(r#"{"op":"shutdown"}"#);
    serving.join().unwrap();
}
