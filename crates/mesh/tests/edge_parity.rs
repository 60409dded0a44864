//! The server and the gateway share one HTTP edge, so a client cannot
//! tell them apart by how they refuse a request: the same raw bytes get
//! the same status line, `Allow` header and body from an in-process
//! `Server` and from a `Gateway` in front of it. Also pins that a body
//! nested past the JSON depth limit is a 400 on both tiers, not a
//! stack overflow that takes the process down.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use xplain_mesh::{Gateway, GatewayConfig, GatewayHandle, Peer};
use xplain_runtime::{DomainRegistry, TenantRegistry};
use xplain_serve::http::MAX_BODY_BYTES;
use xplain_serve::{Client, Server, ServerConfig, ServerHandle};

/// A storeless server and a gateway whose only peer is that server,
/// both under the same tenant file (or both open).
struct Tier {
    server: ServerHandle,
    gateway: GatewayHandle,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl Tier {
    fn start(tenants: Option<PathBuf>) -> Tier {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_workers: 1,
            http_threads: 2,
            tenants: tenants.clone(),
            ..ServerConfig::default()
        })
        .expect("server binds");
        let server_handle = server.handle();
        let gateway = Gateway::bind(GatewayConfig {
            addr: "127.0.0.1:0".into(),
            peers: vec![Peer {
                id: "s0".into(),
                addr: server_handle.addr(),
            }],
            http_threads: 2,
            heartbeat: Duration::from_millis(100),
            tenants,
            ..GatewayConfig::default()
        })
        .expect("gateway binds");
        let gateway_handle = gateway.handle();
        let joins = vec![
            std::thread::spawn(move || {
                server.run(&DomainRegistry::builtin()).expect("server runs")
            }),
            std::thread::spawn(move || gateway.run().expect("gateway runs")),
        ];
        Tier {
            server: server_handle,
            gateway: gateway_handle,
            joins,
        }
    }

    fn stop(self) {
        self.gateway.shutdown();
        self.server.shutdown();
        for join in self.joins {
            join.join().unwrap();
        }
    }
}

/// The parts of an answer a client can branch on: status line, `Allow`
/// header, body.
#[derive(Debug, PartialEq)]
struct Answer {
    status_line: String,
    allow: Option<String>,
    body: String,
}

fn send_raw(addr: SocketAddr, request: &[u8]) -> Answer {
    let mut socket = std::net::TcpStream::connect(addr).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    socket.write_all(request).unwrap();
    let mut wire = String::new();
    socket.read_to_string(&mut wire).unwrap();
    let (head, body) = wire.split_once("\r\n\r\n").expect("a complete head");
    let mut lines = head.split("\r\n");
    Answer {
        status_line: lines.next().unwrap().to_string(),
        allow: lines.find_map(|l| l.strip_prefix("Allow: ").map(str::to_string)),
        body: body.to_string(),
    }
}

/// Send each case to the server and to the gateway; both must give the
/// same answer, with the expected status.
fn assert_parity(tier: &Tier, cases: &[(&str, Vec<u8>, u16)]) {
    for (name, request, status) in cases {
        let direct = send_raw(tier.server.addr(), request);
        let proxied = send_raw(tier.gateway.addr(), request);
        assert!(
            direct
                .status_line
                .starts_with(&format!("HTTP/1.1 {status} ")),
            "{name}: {direct:?}"
        );
        assert_eq!(direct, proxied, "{name}: server and gateway differ");
    }
}

fn post_jobs(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn server_and_gateway_refuse_requests_identically() {
    let open_cases: Vec<(&str, Vec<u8>, u16)> = vec![
        ("malformed request line", b"NONSENSE\r\n\r\n".to_vec(), 400),
        (
            "declared body over the cap",
            format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .into_bytes(),
            413,
        ),
        (
            "unknown path",
            b"GET /no/such/path HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            404,
        ),
        (
            "wrong method",
            b"GET /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            405,
        ),
        (
            "body nested past the depth limit",
            post_jobs(&"[".repeat(50_000)),
            400,
        ),
    ];
    let tier = Tier::start(None);
    assert_parity(&tier, &open_cases);
    tier.stop();

    let tenants_file =
        std::env::temp_dir().join(format!("xplain-edge-parity-{}.json", std::process::id()));
    std::fs::write(
        &tenants_file,
        format!(
            r#"{{"tenants": [{{"id": "t", "key_fnv": "{}"}}]}}"#,
            TenantRegistry::hash_api_key("t-key"),
        ),
    )
    .expect("tenant config writes");
    let enforcing_cases: Vec<(&str, Vec<u8>, u16)> = vec![
        (
            "malformed Authorization",
            b"GET /v1/domains HTTP/1.1\r\nHost: x\r\nAuthorization: Basic dXNlcjpwdw==\r\n\r\n"
                .to_vec(),
            401,
        ),
        (
            "unknown key",
            b"GET /v1/domains HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer nope\r\n\r\n".to_vec(),
            403,
        ),
        ("anonymous submit", post_jobs("{}"), 401),
    ];
    let tier = Tier::start(Some(tenants_file.clone()));
    assert_parity(&tier, &enforcing_cases);
    tier.stop();
    let _ = std::fs::remove_file(&tenants_file);
}

#[test]
fn a_deeply_nested_body_is_a_400_and_both_tiers_keep_serving() {
    let tier = Tier::start(None);
    let body = "[".repeat(100_000);
    for addr in [tier.server.addr(), tier.gateway.addr()] {
        let api = Client::new(addr).with_timeout(Duration::from_secs(30));
        let resp = api.post("/v1/jobs", &body).unwrap();
        assert_eq!(resp.status, 400, "{addr}: {}", resp.body);
        assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
        assert_eq!(api.get("/v1/domains").unwrap().status, 200);
    }
    tier.stop();
}
