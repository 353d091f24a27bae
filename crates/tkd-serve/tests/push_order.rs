//! On the connection that sent an update batch, the batch's pushes come
//! after its ack on the wire.
//!
//! The server acks a batch before it re-runs the batch's standing
//! queries, and a subscribed connection writes its pushes from a thread
//! of its own; the connection thread holds the connection's write lock
//! from a request's submission to its response, so no push can overtake
//! the ack. A raw socket sees the frames in the order they were written
//! (`Client` would buffer an early push and hide the order).

use std::net::TcpStream;
use std::time::Duration;
use tkd_core::{DynamicEngine, StandingSpec, UpdateOp};
use tkd_serve::protocol::{
    decode_response_body, encode_request, read_frame, write_frame_bytes, FramePolicy,
    DEFAULT_MAX_FRAME,
};
use tkd_serve::{Request, Response, ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(10);
const BATCHES: u64 = 40;

fn send(stream: &mut TcpStream, req: &Request) {
    let frame = encode_request(req).expect("request encodes");
    write_frame_bytes(stream, &frame, TIMEOUT).expect("request written");
}

fn next(stream: &mut TcpStream) -> Response {
    let policy = FramePolicy {
        frame_timeout: TIMEOUT,
        idle_timeout: Some(TIMEOUT),
    };
    let (kind, body) = read_frame(stream, DEFAULT_MAX_FRAME, policy, &|| false).expect("a frame");
    decode_response_body(kind, &body).expect("a response")
}

#[test]
fn a_batch_ack_precedes_its_pushes_on_the_writers_line() {
    let engine = DynamicEngine::new(tkd_model::fixtures::fig3_sample());
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let specs = [StandingSpec::new(3), StandingSpec::new(5)];
    for spec in &specs {
        send(&mut stream, &Request::Subscribe(spec.clone()));
        assert!(matches!(next(&mut stream), Response::SubscribeAck(_)));
    }
    for batch in 1..=BATCHES {
        let row = vec![Some(batch as f64 % 7.0), None, Some(2.0), Some(1.0)];
        send(
            &mut stream,
            &Request::UpdateOps(vec![UpdateOp::Insert(row)]),
        );
        match next(&mut stream) {
            Response::UpdateAck(ack) => assert_eq!(ack.seq, batch),
            other => panic!("batch {batch}: {other:?} came before the ack"),
        }
        for _ in &specs {
            match next(&mut stream) {
                Response::Notify(note) => assert_eq!(note.batch_seq, batch),
                other => panic!("batch {batch}: {other:?} where a push was due"),
            }
        }
    }
    server.stop().expect("clean stop");
}
