//! Trace exporters: JSONL (qlog-flavoured) and Chrome `trace_event`.
//!
//! The JSONL form is one compact JSON object per line —
//! `{"seq":…,"time_us":…,"wall_ns":…,"name":…,"data":{…}}` — lossless
//! enough that `SessionLog::from_trace` (in `abr-player`) reconstructs the
//! session history from it. The Chrome form is a `{"traceEvents":[…]}`
//! document that Perfetto / `chrome://tracing` opens directly: transfers
//! become duration slices, stalls and seeks become begin/end pairs, and
//! buffer levels and bandwidth estimates become counter tracks.

use serde::{Deserialize, FromValueError, Map, Serialize, Value};

use abr_event::time::Instant;
use abr_media::track::TrackId;
use abr_media::units::{BitsPerSec, Bytes};

use crate::event::{Event, TracedEvent};

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("name".to_string(), Value::String(self.name().to_string()));
        map.insert("data".to_string(), event_data(self));
        Value::Object(map)
    }
}

impl Deserialize for Event {
    fn from_value(v: &Value) -> Result<Self, FromValueError> {
        let name = v["name"]
            .as_str()
            .ok_or_else(|| FromValueError::expected("event name string", &v["name"]))?;
        event_from(name, &v["data"])
    }
}

impl Serialize for TracedEvent {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("seq".to_string(), self.seq.to_value());
        map.insert("time_us".to_string(), self.at.as_micros().to_value());
        map.insert("wall_ns".to_string(), self.wall_ns.to_value());
        map.insert(
            "name".to_string(),
            Value::String(self.event.name().to_string()),
        );
        map.insert("data".to_string(), event_data(&self.event));
        Value::Object(map)
    }
}

impl Deserialize for TracedEvent {
    fn from_value(v: &Value) -> Result<Self, FromValueError> {
        let name = v["name"]
            .as_str()
            .ok_or_else(|| FromValueError::expected("event name string", &v["name"]))?;
        Ok(TracedEvent {
            seq: u64::from_value(&v["seq"])?,
            at: Instant::from_micros(u64::from_value(&v["time_us"])?),
            wall_ns: u64::from_value(&v["wall_ns"])?,
            event: event_from(name, &v["data"])?,
        })
    }
}

macro_rules! data {
    ($($key:literal : $val:expr),* $(,)?) => {{
        #[allow(unused_mut)]
        let mut map = Map::new();
        $( map.insert($key.to_string(), $val.to_value()); )*
        Value::Object(map)
    }};
}

fn event_data(event: &Event) -> Value {
    match event {
        Event::SessionStart {
            policy,
            chunk_duration,
            num_chunks,
        } => data! {
            "policy": policy, "chunk_duration_us": chunk_duration, "num_chunks": num_chunks,
        },
        Event::RequestIssued {
            flow,
            track,
            chunk,
            size,
        } => data! {
            "flow": flow, "track": track, "chunk": chunk, "size": size,
        },
        Event::TransferProgress {
            flow,
            delivered,
            remaining,
            rate,
        } => data! {
            "flow": flow, "delivered": delivered, "remaining": remaining, "rate": rate,
        },
        Event::TransferCompleted {
            flow,
            track,
            chunk,
            size,
            opened_at,
            estimate_after,
        } => data! {
            "flow": flow, "track": track, "chunk": chunk, "size": size,
            "opened_at_us": opened_at, "estimate_after": estimate_after,
        },
        Event::CacheLookup { object, hit, size } => data! {
            "object": object, "hit": hit, "size": size,
        },
        Event::EstimateUpdated {
            old,
            new,
            window_bytes,
        } => data! {
            "old": old, "new": new, "window_bytes": window_bytes,
        },
        Event::PolicyDecision {
            media,
            chunk,
            candidates,
            chosen,
            reason,
        } => data! {
            "media": media, "chunk": chunk, "candidates": candidates,
            "chosen": chosen, "reason": reason,
        },
        Event::TrackSelected {
            chunk,
            track,
            declared,
            avg_bitrate,
        } => data! {
            "chunk": chunk, "track": track, "declared": declared, "avg_bitrate": avg_bitrate,
        },
        Event::BufferStateChange { audio, video } => data! {
            "audio_us": audio, "video_us": video,
        },
        Event::SeekStarted { from, to } => data! { "from_us": from, "to_us": to },
        Event::PlaylistFetch {
            track,
            requested_at,
        } => data! {
            "track": track, "requested_at_us": requested_at,
        },
        Event::PlaylistRefreshTick { refetched } => data! { "refetched": refetched },
        Event::StallBegin
        | Event::StallEnd
        | Event::PlaybackStarted
        | Event::PlaybackEnded
        | Event::SeekResumed
        | Event::SessionEnd => data! {},
    }
}

fn event_from(name: &str, d: &Value) -> Result<Event, FromValueError> {
    Ok(match name {
        "session_start" => Event::SessionStart {
            policy: String::from_value(&d["policy"])?,
            chunk_duration: Deserialize::from_value(&d["chunk_duration_us"])?,
            num_chunks: usize::from_value(&d["num_chunks"])?,
        },
        "request_issued" => Event::RequestIssued {
            flow: u64::from_value(&d["flow"])?,
            track: Option::<TrackId>::from_value(&d["track"])?,
            chunk: Option::<usize>::from_value(&d["chunk"])?,
            size: Bytes::from_value(&d["size"])?,
        },
        "transfer_progress" => Event::TransferProgress {
            flow: u64::from_value(&d["flow"])?,
            delivered: Bytes::from_value(&d["delivered"])?,
            remaining: Bytes::from_value(&d["remaining"])?,
            rate: BitsPerSec::from_value(&d["rate"])?,
        },
        "transfer_completed" => Event::TransferCompleted {
            flow: u64::from_value(&d["flow"])?,
            track: TrackId::from_value(&d["track"])?,
            chunk: usize::from_value(&d["chunk"])?,
            size: Bytes::from_value(&d["size"])?,
            opened_at: Instant::from_value(&d["opened_at_us"])?,
            estimate_after: Option::<BitsPerSec>::from_value(&d["estimate_after"])?,
        },
        "cache_lookup" => Event::CacheLookup {
            object: String::from_value(&d["object"])?,
            hit: bool::from_value(&d["hit"])?,
            size: Bytes::from_value(&d["size"])?,
        },
        "estimate_updated" => Event::EstimateUpdated {
            old: Option::<BitsPerSec>::from_value(&d["old"])?,
            new: BitsPerSec::from_value(&d["new"])?,
            window_bytes: Bytes::from_value(&d["window_bytes"])?,
        },
        "policy_decision" => Event::PolicyDecision {
            media: Deserialize::from_value(&d["media"])?,
            chunk: usize::from_value(&d["chunk"])?,
            candidates: Vec::<String>::from_value(&d["candidates"])?,
            chosen: TrackId::from_value(&d["chosen"])?,
            reason: String::from_value(&d["reason"])?,
        },
        "track_selected" => Event::TrackSelected {
            chunk: usize::from_value(&d["chunk"])?,
            track: TrackId::from_value(&d["track"])?,
            declared: BitsPerSec::from_value(&d["declared"])?,
            avg_bitrate: BitsPerSec::from_value(&d["avg_bitrate"])?,
        },
        "buffer_state" => Event::BufferStateChange {
            audio: Deserialize::from_value(&d["audio_us"])?,
            video: Deserialize::from_value(&d["video_us"])?,
        },
        "seek_started" => Event::SeekStarted {
            from: Deserialize::from_value(&d["from_us"])?,
            to: Deserialize::from_value(&d["to_us"])?,
        },
        "playlist_fetch" => Event::PlaylistFetch {
            track: TrackId::from_value(&d["track"])?,
            requested_at: Instant::from_value(&d["requested_at_us"])?,
        },
        "playlist_refresh_tick" => Event::PlaylistRefreshTick {
            refetched: usize::from_value(&d["refetched"])?,
        },
        "stall_begin" => Event::StallBegin,
        "stall_end" => Event::StallEnd,
        "playback_started" => Event::PlaybackStarted,
        "playback_ended" => Event::PlaybackEnded,
        "seek_resumed" => Event::SeekResumed,
        "session_end" => Event::SessionEnd,
        other => {
            return Err(FromValueError::message(format!(
                "unknown event name {other:?}"
            )))
        }
    })
}

/// Error from [`from_jsonl`]: malformed JSON or an unknown event shape,
/// with the 1-based line it occurred on.
#[derive(Debug, Clone)]
pub struct TraceReadError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What went wrong there.
    pub message: String,
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceReadError {}

/// Serializes a trace as JSONL: one compact JSON object per event line.
pub fn to_jsonl(events: &[TracedEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        serde_json::to_string_into(ev, &mut out);
        out.push('\n');
    }
    out
}

/// Streams a trace as JSONL into `w`, serializing each event into one
/// reused line buffer — the path for writing large traces to disk (wrap
/// the file in a [`std::io::BufWriter`]). Output is byte-identical to
/// [`to_jsonl`].
pub fn write_jsonl<W: std::io::Write>(events: &[TracedEvent], w: &mut W) -> std::io::Result<()> {
    let mut line = String::new();
    for ev in events {
        line.clear();
        serde_json::to_string_into(ev, &mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Streams the Chrome `trace_event` document into `w` (wrap the file in a
/// [`std::io::BufWriter`]). Output is byte-identical to
/// [`to_chrome_trace`].
pub fn write_chrome_trace<W: std::io::Write>(
    events: &[TracedEvent],
    w: &mut W,
) -> std::io::Result<()> {
    w.write_all(to_chrome_trace(events).as_bytes())
}

/// Parses a JSONL trace back into events. Blank lines are skipped.
pub fn from_jsonl(text: &str) -> Result<Vec<TracedEvent>, TraceReadError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = serde_json::from_str(line).map_err(|e| TraceReadError {
            line: i + 1,
            message: e.to_string(),
        })?;
        let ev = TracedEvent::from_value(&value).map_err(|e| TraceReadError {
            line: i + 1,
            message: e.to_string(),
        })?;
        out.push(ev);
    }
    Ok(out)
}

/// Thread ids used in the Chrome trace: playback lifecycle, network
/// transfers, and policy decisions each get their own row.
const TID_PLAYBACK: u64 = 1;
const TID_NET: u64 = 2;
const TID_POLICY: u64 = 3;

fn chrome_record(ph: &str, name: &str, tid: u64, ts_us: u64, args: Value) -> Value {
    let mut map = Map::new();
    map.insert("ph".to_string(), Value::String(ph.to_string()));
    map.insert("name".to_string(), Value::String(name.to_string()));
    map.insert("cat".to_string(), Value::String("abr".to_string()));
    map.insert("pid".to_string(), 1u64.to_value());
    map.insert("tid".to_string(), tid.to_value());
    map.insert("ts".to_string(), ts_us.to_value());
    if !args.is_null() {
        map.insert("args".to_string(), args);
    }
    Value::Object(map)
}

fn thread_name(tid: u64, name: &str) -> Value {
    let mut rec = chrome_record(
        "M",
        "thread_name",
        tid,
        0,
        serde_json::json!({ "name": name }),
    );
    if let Value::Object(map) = &mut rec {
        map.remove("ts");
        map.remove("cat");
    }
    rec
}

/// Converts a trace to Chrome `trace_event` JSON (the `{"traceEvents":…}`
/// document Perfetto and `chrome://tracing` open). Timestamps are the
/// *simulated* clock in microseconds.
pub fn to_chrome_trace(events: &[TracedEvent]) -> String {
    let mut records: Vec<Value> = vec![
        chrome_record(
            "M",
            "process_name",
            TID_PLAYBACK,
            0,
            serde_json::json!({ "name": "abr-unmuxed" }),
        ),
        thread_name(TID_PLAYBACK, "playback"),
        thread_name(TID_NET, "network"),
        thread_name(TID_POLICY, "policy"),
    ];
    for ev in events {
        let ts = ev.at.as_micros();
        match &ev.event {
            Event::TransferCompleted {
                track,
                chunk,
                size,
                opened_at,
                estimate_after,
                ..
            } => {
                let mut rec = chrome_record(
                    "X",
                    &format!("{track}#{chunk}"),
                    TID_NET,
                    opened_at.as_micros(),
                    serde_json::json!({
                        "size_bytes": size,
                        "estimate_after_kbps": estimate_after.map(abr_media::BitsPerSec::kbps),
                    }),
                );
                if let Value::Object(map) = &mut rec {
                    // A hostile trace may open a transfer after it completed.
                    let dur = ts.saturating_sub(opened_at.as_micros());
                    map.insert("dur".to_string(), dur.to_value());
                }
                records.push(rec);
            }
            Event::StallBegin => {
                records.push(chrome_record("B", "stall", TID_PLAYBACK, ts, Value::Null));
            }
            Event::StallEnd => {
                records.push(chrome_record("E", "stall", TID_PLAYBACK, ts, Value::Null));
            }
            Event::SeekStarted { from, to } => records.push(chrome_record(
                "B",
                "seek",
                TID_PLAYBACK,
                ts,
                serde_json::json!({ "from_s": from.as_secs_f64(), "to_s": to.as_secs_f64() }),
            )),
            Event::SeekResumed => {
                records.push(chrome_record("E", "seek", TID_PLAYBACK, ts, Value::Null));
            }
            Event::BufferStateChange { audio, video } => records.push(chrome_record(
                "C",
                "buffer_s",
                TID_PLAYBACK,
                ts,
                serde_json::json!({ "audio": audio.as_secs_f64(), "video": video.as_secs_f64() }),
            )),
            Event::EstimateUpdated { new, .. } => records.push(chrome_record(
                "C",
                "estimate_kbps",
                TID_POLICY,
                ts,
                serde_json::json!({ "estimate": new.kbps() }),
            )),
            Event::PolicyDecision {
                media,
                chunk,
                chosen,
                reason,
                ..
            } => records.push(chrome_record(
                "i",
                &format!("decide {media} #{chunk}"),
                TID_POLICY,
                ts,
                serde_json::json!({ "chosen": chosen.to_string(), "reason": reason }),
            )),
            Event::TrackSelected { chunk, track, .. } => records.push(chrome_record(
                "i",
                &format!("select {track}#{chunk}"),
                TID_POLICY,
                ts,
                Value::Null,
            )),
            Event::CacheLookup { object, hit, .. } => records.push(chrome_record(
                "i",
                &format!("cache {}", if *hit { "hit" } else { "miss" }),
                TID_NET,
                ts,
                serde_json::json!({ "object": object }),
            )),
            Event::PlaybackStarted => records.push(chrome_record(
                "i",
                "playback_started",
                TID_PLAYBACK,
                ts,
                Value::Null,
            )),
            Event::PlaybackEnded => records.push(chrome_record(
                "i",
                "playback_ended",
                TID_PLAYBACK,
                ts,
                Value::Null,
            )),
            Event::SessionStart { policy, .. } => records.push(chrome_record(
                "i",
                &format!("session {policy}"),
                TID_PLAYBACK,
                ts,
                Value::Null,
            )),
            Event::SessionEnd => records.push(chrome_record(
                "i",
                "session_end",
                TID_PLAYBACK,
                ts,
                Value::Null,
            )),
            // Request/progress/playlist detail stays JSONL-only; in the
            // Chrome view the transfer slices already cover the network row.
            Event::RequestIssued { .. }
            | Event::TransferProgress { .. }
            | Event::PlaylistFetch { .. }
            | Event::PlaylistRefreshTick { .. } => {}
        }
    }
    let doc = serde_json::json!({
        "traceEvents": Value::Array(records),
        "displayTimeUnit": "ms",
    });
    serde_json::to_string_pretty(&doc).expect("trace serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::Duration;
    use abr_media::track::MediaType;

    fn sample_events() -> Vec<TracedEvent> {
        let mk = |seq, at, event| TracedEvent {
            seq,
            at,
            wall_ns: seq * 10,
            event,
        };
        vec![
            mk(
                0,
                Instant::ZERO,
                Event::SessionStart {
                    policy: "shaka-hls".to_string(),
                    chunk_duration: Duration::from_secs(4),
                    num_chunks: 3,
                },
            ),
            mk(
                1,
                Instant::ZERO,
                Event::RequestIssued {
                    flow: 1,
                    track: Some(TrackId::video(2)),
                    chunk: Some(0),
                    size: Bytes(50_000),
                },
            ),
            mk(
                2,
                Instant::from_millis(500),
                Event::PolicyDecision {
                    media: MediaType::Video,
                    chunk: 0,
                    candidates: vec!["V1+A1".to_string(), "V2+A2".to_string()],
                    chosen: TrackId::video(1),
                    reason: "highest under estimate".to_string(),
                },
            ),
            mk(
                3,
                Instant::from_millis(800),
                Event::TransferCompleted {
                    flow: 1,
                    track: TrackId::video(2),
                    chunk: 0,
                    size: Bytes(50_000),
                    opened_at: Instant::ZERO,
                    estimate_after: Some(BitsPerSec::from_kbps(900)),
                },
            ),
            mk(
                4,
                Instant::from_secs(1),
                Event::EstimateUpdated {
                    old: None,
                    new: BitsPerSec::from_kbps(900),
                    window_bytes: Bytes(50_000),
                },
            ),
            mk(5, Instant::from_secs(2), Event::StallBegin),
            mk(
                6,
                Instant::from_secs(3),
                Event::BufferStateChange {
                    audio: Duration::from_secs(8),
                    video: Duration::from_millis(500),
                },
            ),
            mk(7, Instant::from_secs(4), Event::StallEnd),
            mk(
                8,
                Instant::from_secs(5),
                Event::SeekStarted {
                    from: Duration::from_secs(4),
                    to: Duration::from_secs(60),
                },
            ),
            mk(
                9,
                Instant::from_secs(6),
                Event::PlaylistFetch {
                    track: TrackId::audio(0),
                    requested_at: Instant::from_secs(5),
                },
            ),
            mk(10, Instant::from_secs(7), Event::SessionEnd),
        ]
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let events = sample_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn write_jsonl_matches_to_jsonl_bytes() {
        let events = sample_events();
        let mut buf: Vec<u8> = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        assert_eq!(buf, to_jsonl(&events).into_bytes());
        let mut doc: Vec<u8> = Vec::new();
        write_chrome_trace(&events, &mut doc).unwrap();
        assert_eq!(doc, to_chrome_trace(&events).into_bytes());
    }

    #[test]
    fn jsonl_lines_carry_the_envelope() {
        let text = to_jsonl(&sample_events());
        let first: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(first["name"], "session_start");
        assert_eq!(first["seq"], 0u64);
        assert_eq!(first["time_us"], 0u64);
        assert_eq!(first["data"]["policy"], "shaka-hls");
        assert_eq!(first["data"]["num_chunks"], 3u64);
    }

    #[test]
    fn from_jsonl_reports_offending_line() {
        let err = from_jsonl("{\"seq\":0,\"time_us\":0,\"wall_ns\":0,\"name\":\"session_end\",\"data\":{}}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        let err = from_jsonl(
            "{\"seq\":0,\"time_us\":0,\"wall_ns\":0,\"name\":\"mystery\",\"data\":{}}\n",
        )
        .unwrap_err();
        assert!(err.message.contains("mystery"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let events = sample_events();
        let mut text = String::from("\n");
        text.push_str(&to_jsonl(&events));
        text.push('\n');
        assert_eq!(from_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn chrome_trace_shapes() {
        let doc: Value = serde_json::from_str(&to_chrome_trace(&sample_events())).unwrap();
        let records = doc["traceEvents"].as_array().unwrap();
        // Transfer slice: X with duration equal to the transfer time.
        let x = records.iter().find(|r| r["ph"] == "X").unwrap();
        assert_eq!(x["name"], "V3#0");
        assert_eq!(x["ts"], 0u64);
        assert_eq!(x["dur"], 800_000u64);
        // Stall begins and ends pair up on the playback thread.
        let begins = records
            .iter()
            .filter(|r| r["ph"] == "B" && r["name"] == "stall")
            .count();
        let ends = records
            .iter()
            .filter(|r| r["ph"] == "E" && r["name"] == "stall")
            .count();
        assert_eq!((begins, ends), (1, 1));
        // Buffer counter carries both series.
        let c = records
            .iter()
            .find(|r| r["ph"] == "C" && r["name"] == "buffer_s")
            .unwrap();
        assert_eq!(c["args"]["audio"].as_f64(), Some(8.0));
        assert_eq!(c["args"]["video"].as_f64(), Some(0.5));
        // Thread metadata names the rows.
        assert!(records
            .iter()
            .any(|r| r["ph"] == "M" && r["args"]["name"] == "network"));
    }

    #[test]
    fn chrome_trace_clamps_a_transfer_opened_after_it_completed() {
        let events = vec![TracedEvent {
            seq: 0,
            at: Instant::from_secs(1),
            wall_ns: 0,
            event: Event::TransferCompleted {
                flow: 1,
                track: TrackId::video(0),
                chunk: 0,
                size: Bytes(1000),
                opened_at: Instant::from_secs(2),
                estimate_after: None,
            },
        }];
        // The JSONL parser accepts the event; the Chrome export must not
        // underflow on it.
        let parsed = from_jsonl(&to_jsonl(&events)).unwrap();
        let doc: Value = serde_json::from_str(&to_chrome_trace(&parsed)).unwrap();
        let x = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|r| r["ph"] == "X")
            .unwrap()
            .clone();
        assert_eq!(x["ts"], 2_000_000u64);
        assert_eq!(x["dur"], 0u64);
    }
}
