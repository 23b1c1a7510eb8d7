//! Coordinator ⇄ worker wire frames (`dist-frame` schema).
//!
//! Each frame is one JSON object carried over the length-prefixed
//! transport of [`air_serve`] (`read_frame`/`write_frame`), with a
//! `"frame"` tag naming the variant. The set is closed, and
//! `schemas/dist-frame.schema.json` is its one source: the tests below
//! check it against the variants, and in CI `cargo run -p air-cli
//! --bin schema_check` checks a recorded `--dist-frame-log` against it.
//!
//! Direction of each frame:
//!
//! | frame       | direction            | meaning                                        |
//! |-------------|----------------------|------------------------------------------------|
//! | `hello`     | worker → coordinator | shard is up, ready for leases                  |
//! | `lease`     | coordinator → worker | run items `[lo, hi)`                           |
//! | `truncate`  | coordinator → worker | stop the lease early at `hi` (steal / halt)    |
//! | `heartbeat` | worker → coordinator | liveness + progress (`next` = next item)       |
//! | `result`    | worker → coordinator | lease done: covered `[lo, stopped)`, `payload` |
//! | `error`     | worker → coordinator | lease failed; coordinator aborts the campaign  |
//! | `shutdown`  | coordinator → worker | no more work; exit cleanly                     |
//!
//! The worker's `stopped` in a `result` is **authoritative**: a
//! `truncate` that races past the worker's progress is simply ignored,
//! and the coordinator only reissues `[stopped, hi)` after seeing the
//! result. This makes stealing safe without any locking across
//! processes.

use std::fmt::Write as _;

use air_trace::json::{self, str_lit, Value};

/// One coordinator ⇄ worker message. See the module table for
/// directions and semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Worker `shard` (OS process `pid`) is ready for leases.
    Hello { shard: u64, pid: u64 },
    /// Run items `[lo, hi)` under lease id `lease`.
    Lease { lease: u64, lo: u64, hi: u64 },
    /// Stop lease `lease` at `hi` (work-stealing or campaign halt).
    Truncate { lease: u64, hi: u64 },
    /// Still alive on `lease`; `next` is the next item to run.
    Heartbeat { lease: u64, next: u64 },
    /// Lease `lease` finished: `[lo, stopped)` is covered and `payload`
    /// holds the partial-result checkpoint for that tile.
    Result {
        lease: u64,
        lo: u64,
        stopped: u64,
        payload: String,
    },
    /// The worker hit an unrecoverable error; the campaign aborts.
    Error { message: String },
    /// No more work; the worker should exit 0.
    Shutdown,
}

impl Frame {
    /// The `"frame"` tag this variant renders with.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Lease { .. } => "lease",
            Frame::Truncate { .. } => "truncate",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::Result { .. } => "result",
            Frame::Error { .. } => "error",
            Frame::Shutdown => "shutdown",
        }
    }

    /// Renders the frame as one deterministic JSON object.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"frame\":\"{}\"", self.name());
        match self {
            Frame::Hello { shard, pid } => {
                let _ = write!(out, ",\"shard\":{shard},\"pid\":{pid}");
            }
            Frame::Lease { lease, lo, hi } => {
                let _ = write!(out, ",\"lease\":{lease},\"lo\":{lo},\"hi\":{hi}");
            }
            Frame::Truncate { lease, hi } => {
                let _ = write!(out, ",\"lease\":{lease},\"hi\":{hi}");
            }
            Frame::Heartbeat { lease, next } => {
                let _ = write!(out, ",\"lease\":{lease},\"next\":{next}");
            }
            Frame::Result {
                lease,
                lo,
                stopped,
                payload,
            } => {
                let _ = write!(
                    out,
                    ",\"lease\":{lease},\"lo\":{lo},\"stopped\":{stopped},\"payload\":{}",
                    str_lit(payload)
                );
            }
            Frame::Error { message } => {
                let _ = write!(out, ",\"message\":{}", str_lit(message));
            }
            Frame::Shutdown => {}
        }
        out.push('}');
        out
    }

    /// Parses a frame, rejecting unknown tags and missing fields.
    pub fn parse(text: &str) -> Result<Frame, String> {
        let doc = json::parse(text.trim())?;
        let tag = doc
            .get("frame")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"frame\" tag".to_string())?;
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Value::as_num)
                .map(|n| n as u64)
                .ok_or_else(|| format!("{tag} frame: missing numeric {key:?}"))
        };
        let text_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{tag} frame: missing string {key:?}"))
        };
        match tag {
            "hello" => Ok(Frame::Hello {
                shard: num("shard")?,
                pid: num("pid")?,
            }),
            "lease" => Ok(Frame::Lease {
                lease: num("lease")?,
                lo: num("lo")?,
                hi: num("hi")?,
            }),
            "truncate" => Ok(Frame::Truncate {
                lease: num("lease")?,
                hi: num("hi")?,
            }),
            "heartbeat" => Ok(Frame::Heartbeat {
                lease: num("lease")?,
                next: num("next")?,
            }),
            "result" => Ok(Frame::Result {
                lease: num("lease")?,
                lo: num("lo")?,
                stopped: num("stopped")?,
                payload: text_field("payload")?,
            }),
            "error" => Ok(Frame::Error {
                message: text_field("message")?,
            }),
            "shutdown" => Ok(Frame::Shutdown),
            other => Err(format!("unknown frame tag {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame of every kind, each logged in its direction: the
    /// `schema_check` tests run the same file through the direction check.
    const LOG: &str = include_str!("../../../schemas/fixtures/dist-frame.valid.jsonl");

    /// The frame text of every line of [`LOG`].
    fn samples() -> impl Iterator<Item = &'static str> {
        LOG.lines().map(|line| {
            let frame = line.split_once(",\"frame\":").unwrap().1;
            &frame[..frame.len() - 1]
        })
    }

    #[test]
    fn frames_roundtrip() {
        for text in samples() {
            let f = Frame::parse(text).expect("parse");
            assert_eq!(f.render(), text);
        }
    }

    /// Every line of [`LOG`] passes the checked-in schema, and its
    /// frames are exactly the schema's.
    #[test]
    fn every_frame_logs_a_schema_valid_line_and_the_schema_names_them_all() {
        let text = include_str!("../../../schemas/dist-frame.schema.json");
        let schema = air_trace::Schema::parse(text).unwrap();
        let mut rendered = std::collections::BTreeSet::new();
        for (line, frame) in LOG.lines().zip(samples()) {
            let name = Frame::parse(frame).unwrap().name();
            assert_eq!(schema.check(&json::parse(line).unwrap()), Ok(Some(name)));
            assert!(rendered.insert(name), "{line}: a second sample");
        }
        let doc = json::parse(text).unwrap();
        let frames = ["properties", "frame", "variants"]
            .iter()
            .try_fold(&doc, |v, key| v.get(key))
            .and_then(Value::as_obj)
            .unwrap();
        assert!(rendered.iter().eq(frames.keys()), "{rendered:?}");
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(Frame::parse("{\"frame\":\"warp\"}").is_err());
        assert!(Frame::parse("{\"lease\":1}").is_err());
        assert!(Frame::parse("{\"frame\":\"lease\",\"lease\":1,\"lo\":0}").is_err());
        assert!(Frame::parse("not json").is_err());
    }
}
