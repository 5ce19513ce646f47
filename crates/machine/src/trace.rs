//! Optional communication-event tracing.
//!
//! When enabled on the [`Machine`](crate::Machine), every send, receive,
//! exchange, and flop batch is recorded with the rank's α-β-γ clock at
//! completion, producing a per-rank timeline that can be dumped for
//! inspection (the `trace` binary in `syrk-bench` renders one as CSV).

/// What happened in a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A point-to-point (or collective-internal) send.
    Send,
    /// A point-to-point (or collective-internal) receive.
    Recv,
    /// A duplex exchange step (send + receive charged once).
    Exchange,
    /// A batch of local arithmetic.
    Flops,
}

/// One traced event on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The peer world rank (sends/recvs/exchanges) or `usize::MAX` for
    /// local work.
    pub peer: usize,
    /// Words moved (max of the two directions for an exchange) or flops
    /// performed.
    pub amount: u64,
    /// The rank's α-β-γ clock when the event completed.
    pub clock: f64,
    /// The innermost phase open when the event was recorded (see
    /// [`Comm::phase`](crate::Comm::phase)), or `None` when the
    /// rank was outside any span.
    pub phase: Option<&'static str>,
}

/// Quote a CSV field per RFC 4180 only when it needs it: fields with a
/// comma, double quote, or line break get wrapped in quotes with embedded
/// quotes doubled; plain fields pass through unchanged so existing
/// consumers (and greps) see the same bytes as before.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl Event {
    /// CSV row (kind,peer,amount,clock,phase); `-` for no peer / no phase.
    /// The phase field — the only caller-supplied string — is quoted per
    /// RFC 4180 when it contains CSV metacharacters, so a phase name like
    /// `a,b` cannot smuggle extra columns into the dump.
    pub fn to_csv_row(&self) -> String {
        let peer = if self.peer == usize::MAX {
            "-".to_string()
        } else {
            self.peer.to_string()
        };
        format!(
            "{:?},{peer},{},{:.6e},{}",
            self.kind,
            self.amount,
            self.clock,
            csv_field(self.phase.unwrap_or("-"))
        )
    }
}

/// A per-rank event log.
pub type Timeline = Vec<Event>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_row_formats() {
        let e = Event {
            kind: EventKind::Send,
            peer: 3,
            amount: 10,
            clock: 1.5,
            phase: Some("allgather-A"),
        };
        assert_eq!(e.to_csv_row(), "Send,3,10,1.500000e0,allgather-A");
        let f = Event {
            kind: EventKind::Flops,
            peer: usize::MAX,
            amount: 7,
            clock: 0.0,
            phase: None,
        };
        assert!(f.to_csv_row().starts_with("Flops,-,7,"));
        assert!(f.to_csv_row().ends_with(",-"));
    }

    #[test]
    fn csv_row_quotes_hostile_phase_names() {
        // A phase name with CSV metacharacters must not add columns or
        // rows to the dump.
        let e = Event {
            kind: EventKind::Send,
            peer: 1,
            amount: 2,
            clock: 1.0,
            phase: Some("evil,\"инъекция\"\nrow"),
        };
        let row = e.to_csv_row();
        // Still exactly 5 columns: commas inside the quoted field don't
        // count as separators.
        assert_eq!(row, "Send,1,2,1.000000e0,\"evil,\"\"инъекция\"\"\nrow\"");
        assert_eq!(
            row.split(',').take(4).collect::<Vec<_>>(),
            ["Send", "1", "2", "1.000000e0"]
        );
    }

    #[test]
    fn csv_field_passes_plain_strings_through() {
        assert_eq!(csv_field("allgather-A"), "allgather-A");
        assert_eq!(csv_field("-"), "-");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
