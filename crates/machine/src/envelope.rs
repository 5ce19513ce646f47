//! Messages exchanged between simulated ranks.

use std::any::Any;
use std::sync::Arc;

use crate::fault::mix64;

/// Data that can be sent between ranks.
///
/// The machine charges bandwidth by *words*; a word is one `f64`-sized
/// element. Implementors report how many words their wire representation
/// occupies so the cost accounting matches the paper's word counts, and a
/// checksum of those words so corrupted deliveries can be detected when a
/// fault plan is active.
pub trait Payload: Send + 'static {
    /// Number of machine words this payload occupies on the wire.
    fn words(&self) -> usize;

    /// Order-sensitive checksum of the wire representation. Only computed
    /// when a fault plan perturbs messages; the default folds nothing.
    fn checksum(&self) -> u64 {
        0
    }

    /// How the payload rides in an envelope: type-erased in a box, unless
    /// the type has a [`Wire`] variant of its own.
    #[doc(hidden)]
    fn into_wire(self) -> Wire
    where
        Self: Sized,
    {
        Wire::Boxed(Box::new(self))
    }

    /// The payload back out of an envelope; `None` when the envelope
    /// carries another type.
    #[doc(hidden)]
    fn from_wire(wire: Wire) -> Option<Self>
    where
        Self: Sized,
    {
        match wire {
            Wire::Boxed(b) => b.downcast().ok().map(|b| *b),
            _ => None,
        }
    }
}

/// A payload inside an [`Envelope`]. `Vec<f64>` — every block and partial
/// sum the algorithms move — travels as it is; boxing it would cost the
/// message path one more allocation and free than the data needs. A
/// buffer that goes to many destinations unchanged (the 2D exchange's
/// chunks) travels as `Arc<[f64]>`: one allocation, a handle per message.
/// Neither kind is ever received as the other.
pub enum Wire {
    /// A `Vec<f64>`, unboxed.
    Words(Vec<f64>),
    /// An `Arc<[f64]>`: the sender's buffer itself, not a copy of it.
    Shared(Arc<[f64]>),
    /// Any other payload type; downcast on receive.
    Boxed(Box<dyn Any + Send>),
}

/// Fold one 64-bit word into a running checksum (order-sensitive).
fn fold(acc: u64, word: u64) -> u64 {
    mix64(acc.rotate_left(7) ^ word)
}

/// Checksum of a run of `f64` words, whichever buffer kind holds them.
fn fold_words(words: &[f64]) -> u64 {
    words.iter().fold(0xf64, |a, x| fold(a, x.to_bits()))
}

impl Payload for Vec<f64> {
    fn words(&self) -> usize {
        self.len()
    }

    fn checksum(&self) -> u64 {
        fold_words(self)
    }

    fn into_wire(self) -> Wire {
        Wire::Words(self)
    }

    fn from_wire(wire: Wire) -> Option<Self> {
        match wire {
            Wire::Words(v) => Some(v),
            _ => None,
        }
    }
}

impl Payload for Arc<[f64]> {
    fn words(&self) -> usize {
        self.len()
    }

    fn checksum(&self) -> u64 {
        fold_words(self)
    }

    fn into_wire(self) -> Wire {
        Wire::Shared(self)
    }

    fn from_wire(wire: Wire) -> Option<Self> {
        match wire {
            Wire::Shared(a) => Some(a),
            _ => None,
        }
    }
}

impl Payload for Vec<u64> {
    fn words(&self) -> usize {
        self.len()
    }

    fn checksum(&self) -> u64 {
        self.iter().fold(0x64, |a, &x| fold(a, x))
    }
}

impl Payload for Vec<usize> {
    fn words(&self) -> usize {
        self.len()
    }

    fn checksum(&self) -> u64 {
        self.iter().fold(0x512e, |a, &x| fold(a, x as u64))
    }
}

impl Payload for f64 {
    fn words(&self) -> usize {
        1
    }

    fn checksum(&self) -> u64 {
        fold(0x1f64, self.to_bits())
    }
}

impl Payload for u64 {
    fn words(&self) -> usize {
        1
    }

    fn checksum(&self) -> u64 {
        fold(0x164, *self)
    }
}

impl Payload for usize {
    fn words(&self) -> usize {
        1
    }

    fn checksum(&self) -> u64 {
        fold(0x1512e, *self as u64)
    }
}

/// The unit payload: a pure synchronization message of zero words
/// (only the latency α is charged).
impl Payload for () {
    fn words(&self) -> usize {
        0
    }

    fn checksum(&self) -> u64 {
        0x0717
    }
}

/// Stand-in payload carried by injected duplicate/corrupt copies. The
/// receive path discards those copies before any downcast, so if one ever
/// leaked through, the downcast would fail loudly instead of silently
/// returning garbage.
pub(crate) struct Garbled;

impl Garbled {
    pub(crate) fn wire() -> Wire {
        Wire::Boxed(Box::new(Garbled))
    }
}

/// A typed message envelope traveling through the simulated network.
pub(crate) struct Envelope {
    /// World rank of the sender.
    pub src: usize,
    /// Communicator id + user tag; receives match on both.
    pub tag: (u64, u64),
    /// Word count, for cost accounting on the receive side.
    pub words: usize,
    /// Sender's clock when the message was dispatched.
    pub sender_ready: f64,
    /// Per-link (`src → dst`) sequence number assigned in program order.
    /// Retransmissions and injected copies of one logical message share it.
    pub seq: u64,
    /// Checksum the sender computed over the true payload (0 when no
    /// fault plan is active — checksums are then skipped entirely).
    pub checksum: u64,
    /// Checksum of the bits as delivered; differs from `checksum` exactly
    /// when the copy was corrupted in flight.
    pub wire_checksum: u64,
    /// The payload; recovered with [`Payload::from_wire`] on receive.
    pub payload: Wire,
}

impl Envelope {
    /// Whether this envelope satisfies a receive posted for `(src, tag)`.
    /// The single matching predicate of the receive loop and its pending
    /// queue (see `crate::engine` for why the match alone decides what a
    /// receive returns).
    pub(crate) fn matches(&self, src_world: usize, tag: (u64, u64)) -> bool {
        self.src == src_world && self.tag == tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_counts() {
        assert_eq!(vec![1.0f64; 7].words(), 7);
        assert_eq!(vec![1u64, 2, 3].words(), 3);
        assert_eq!(vec![1usize; 5].words(), 5);
        assert_eq!(3.5f64.words(), 1);
        assert_eq!(7u64.words(), 1);
        assert_eq!(9usize.words(), 1);
        assert_eq!(().words(), 0);
    }

    #[test]
    fn checksums_are_order_and_value_sensitive() {
        assert_ne!(vec![1.0f64, 2.0].checksum(), vec![2.0f64, 1.0].checksum());
        assert_ne!(vec![1u64, 2].checksum(), vec![1u64, 3].checksum());
        assert_eq!(vec![1.0f64, 2.0].checksum(), vec![1.0f64, 2.0].checksum());
        // Different payload types never share a checksum stream trivially.
        assert_ne!(vec![1u64].checksum(), vec![1usize].checksum());
    }

    #[test]
    fn envelope_downcast_roundtrip() {
        let e = Envelope {
            src: 3,
            tag: (0, 42),
            words: 2,
            sender_ready: 1.5,
            seq: 0,
            checksum: 0,
            wire_checksum: 0,
            payload: vec![1.0f64, 2.0].into_wire(),
        };
        assert!(matches!(e.payload, Wire::Words(_)));
        assert_eq!(Vec::<f64>::from_wire(e.payload), Some(vec![1.0, 2.0]));
        // Every other type rides boxed, and neither form yields the other.
        assert_eq!(Vec::<u64>::from_wire(vec![3u64].into_wire()), Some(vec![3]));
        assert_eq!(Vec::<f64>::from_wire(vec![3u64].into_wire()), None);
        assert_eq!(Vec::<u64>::from_wire(vec![3.0f64].into_wire()), None);
    }

    #[test]
    fn shared_words_ride_as_a_handle_and_fold_like_owned_ones() {
        let owned = vec![1.5f64, -2.0, 0.0, 7.25];
        let shared: Arc<[f64]> = Arc::from(&owned[..]);
        assert_eq!(shared.words(), owned.words());
        // Same fold: a corrupted copy of either kind is detected alike.
        assert_eq!(shared.checksum(), owned.checksum());
        // The envelope carries the sender's buffer, not a copy of it.
        let wire = Arc::clone(&shared).into_wire();
        assert!(matches!(wire, Wire::Shared(_)));
        let back = <Arc<[f64]>>::from_wire(wire).expect("a shared payload");
        assert!(Arc::ptr_eq(&back, &shared));
        // Neither kind is received as the other, nor as a boxed type.
        assert_eq!(Vec::<f64>::from_wire(shared.clone().into_wire()), None);
        assert_eq!(<Arc<[f64]>>::from_wire(owned.into_wire()), None);
        assert_eq!(Vec::<u64>::from_wire(shared.into_wire()), None);
    }
}
