//! Property: **the frame decoder is total and the codec is lossless.**
//! Whatever bytes a hostile or broken peer sends, `decode_frame` answers
//! with "need more", one frame of a sane length, or one of the six
//! published `proto.*` codes — never a panic. Every frame the encoder can
//! produce decodes back to itself, and every strict prefix of it is
//! "need more" (the poller's incremental-parse contract).

use lazyetl::server::protocol::{
    decode_frame, frame_bytes, Frame, WireMetrics, DEFAULT_MAX_RESPONSE, HEADER_LEN, MAGIC, VERSION,
};
use lazyetl::store::{Column, DataType, Field, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

const PROTO_CODES: [&str; 6] = [
    "proto.io",
    "proto.magic",
    "proto.version",
    "proto.type",
    "proto.oversize",
    "proto.malformed",
];

/// The decoder's whole contract on one buffer.
fn assert_total(buf: &[u8], max_payload: u32) -> Result<(), TestCaseError> {
    match decode_frame(buf, max_payload) {
        Ok(None) => {}
        Ok(Some((_, used))) => {
            prop_assert!(
                (HEADER_LEN..=buf.len()).contains(&used),
                "consumed {used} of {} bytes",
                buf.len()
            );
        }
        Err(e) => prop_assert!(PROTO_CODES.contains(&e.code()), "unpublished {}", e.code()),
    }
    Ok(())
}

/// A header the decoder will look past (right magic, usually the right
/// version) in front of an arbitrary payload, with a length field that is
/// usually honest — the inputs that reach the per-type payload decoders.
fn plausible_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof![9 => Just(VERSION), 1 => any::<u8>()],
        prop_oneof![9 => 0u8..0x18, 1 => any::<u8>()],
        prop::collection::vec(any::<u8>(), 0..96),
        prop_oneof![9 => Just(None), 1 => prop::option::of(any::<u32>())],
    )
        .prop_map(|(version, ftype, payload, claimed)| {
            let mut buf = MAGIC.to_be_bytes().to_vec();
            buf.push(version);
            buf.push(ftype);
            buf.extend_from_slice(&claimed.unwrap_or(payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(&payload);
            buf
        })
}

fn table_strategy() -> impl Strategy<Value = Table> {
    (0usize..5, any::<u64>()).prop_map(|(rows, seed)| {
        // One column per wire type; the nullable ones carry NULLs.
        let mut rng = TestRng::for_case("table", seed);
        let mut cell = |dt: DataType, nullable: bool| -> Value {
            if nullable && rng.below(3) == 0 {
                return Value::Null;
            }
            let n = rng.next_u64();
            match dt {
                DataType::Bool => Value::Bool(n & 1 == 1),
                DataType::Int32 => Value::Int32(n as i32),
                DataType::Int64 => Value::Int64(n as i64),
                DataType::Float64 => Value::Float64(n as i32 as f64 / 8.0),
                DataType::Utf8 => Value::Utf8(format!("s{}", n % 1000)),
                DataType::Timestamp => Value::Timestamp(n as i64),
            }
        };
        let specs = [
            ("b", DataType::Bool, true),
            ("i", DataType::Int32, false),
            ("l", DataType::Int64, true),
            ("f", DataType::Float64, true),
            ("s", DataType::Utf8, true),
            ("t", DataType::Timestamp, false),
        ];
        let mut fields = Vec::new();
        let mut columns = Vec::new();
        for (name, dt, nullable) in specs {
            fields.push(Field {
                name: name.to_string(),
                data_type: dt,
                nullable,
            });
            let values: Vec<Value> = (0..rows).map(|_| cell(dt, nullable)).collect();
            columns.push(Column::from_values(dt, &values).unwrap());
        }
        Table::new(Schema::new(fields).unwrap(), columns).unwrap()
    })
}

fn metrics_strategy() -> impl Strategy<Value = WireMetrics> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(a, b, c, d, e, f)| WireMetrics {
            queue_wait_us: a,
            exec_us: b,
            rows: c,
            records_extracted: d,
            cache_hits: e,
            cache_misses: f,
            result_recycled: a & 1 == 1,
        })
}

/// One frame of **every** variant, fields drawn at random.
fn one_of_each() -> impl Strategy<Value = Vec<Frame>> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
        any::<u8>(),
        ("[ -~]{0,40}", "[a-z.]{0,16}"),
        table_strategy(),
        metrics_strategy(),
    )
        .prop_map(
            |((cursor, n, rows, big), byte, (text, code), table, metrics)| {
                let table = Arc::new(table);
                vec![
                    Frame::Error {
                        code,
                        message: text.clone(),
                    },
                    Frame::Busy {
                        queue_depth: cursor,
                        queued: n,
                        estimated_rows: rows,
                        cost_budget: big,
                    },
                    Frame::Stats,
                    Frame::StatsReply { text: text.clone() },
                    Frame::Ping,
                    Frame::Pong,
                    Frame::Shutdown,
                    Frame::ShutdownAck,
                    Frame::Hello { max_version: byte },
                    Frame::HelloAck {
                        version: byte,
                        batch_rows: cursor,
                        initial_credit: n,
                    },
                    Frame::QueryV2 {
                        cursor,
                        delay_ms: n,
                        sql: text.clone(),
                    },
                    Frame::ResultStart {
                        cursor,
                        metrics,
                        schema: Arc::new(Table::empty(table.schema.clone())),
                    },
                    Frame::ResultBatch {
                        cursor,
                        seq: n,
                        table,
                    },
                    Frame::ResultEnd {
                        cursor,
                        batches: n,
                        rows,
                        cancelled: byte & 1 == 1,
                    },
                    Frame::Credit { cursor, n },
                    Frame::Cancel { cursor },
                    Frame::Subscribe { cursor, sql: text },
                    Frame::SubUpdate {
                        cursor,
                        update: n,
                        rows,
                    },
                ]
            },
        )
}

/// The published type byte of each variant. No wildcard arm: a new
/// variant fails to compile here until `one_of_each` covers it too.
fn type_byte(frame: &Frame) -> u8 {
    match frame {
        Frame::Error { .. } => 0x03,
        Frame::Busy { .. } => 0x04,
        Frame::Stats => 0x05,
        Frame::StatsReply { .. } => 0x06,
        Frame::Ping => 0x07,
        Frame::Pong => 0x08,
        Frame::Shutdown => 0x09,
        Frame::ShutdownAck => 0x0A,
        Frame::Hello { .. } => 0x0B,
        Frame::HelloAck { .. } => 0x0C,
        Frame::QueryV2 { .. } => 0x0D,
        Frame::ResultStart { .. } => 0x0E,
        Frame::ResultBatch { .. } => 0x0F,
        Frame::ResultEnd { .. } => 0x10,
        Frame::Credit { .. } => 0x11,
        Frame::Cancel { .. } => 0x12,
        Frame::Subscribe { .. } => 0x13,
        Frame::SubUpdate { .. } => 0x14,
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        max_payload in prop_oneof![Just(16u32), Just(DEFAULT_MAX_RESPONSE)],
    ) {
        assert_total(&bytes, max_payload)?;
    }

    #[test]
    fn arbitrary_payloads_behind_a_plausible_header_never_panic(
        bytes in plausible_frame(),
        max_payload in prop_oneof![Just(16u32), Just(DEFAULT_MAX_RESPONSE)],
    ) {
        assert_total(&bytes, max_payload)?;
    }

    #[test]
    fn corrupted_valid_frames_never_panic(
        frames in one_of_each(),
        at in any::<prop::sample::Index>(),
        with in any::<u8>(),
    ) {
        for frame in &frames {
            let mut bytes = frame_bytes(frame).unwrap();
            let i = at.index(bytes.len());
            bytes[i] = with;
            assert_total(&bytes, DEFAULT_MAX_RESPONSE)?;
        }
    }

    #[test]
    fn every_variant_round_trips_and_its_prefixes_wait(frames in one_of_each()) {
        prop_assert_eq!(frames.len(), 18);
        for frame in &frames {
            let bytes = frame_bytes(frame).unwrap();
            prop_assert_eq!(bytes[2], VERSION);
            prop_assert_eq!(bytes[3], type_byte(frame));
            match decode_frame(&bytes, DEFAULT_MAX_RESPONSE) {
                Ok(Some((back, used))) => {
                    prop_assert_eq!(&back, frame);
                    prop_assert_eq!(used, bytes.len());
                }
                other => prop_assert!(false, "{frame:?} decoded to {other:?}"),
            }
            for cut in 0..bytes.len() {
                prop_assert!(
                    matches!(decode_frame(&bytes[..cut], DEFAULT_MAX_RESPONSE), Ok(None)),
                    "{cut}-byte prefix of {frame:?} did not wait for more"
                );
            }
        }
    }
}
