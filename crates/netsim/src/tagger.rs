//! The packet tagger.
//!
//! The prototype (§VI-A) runs a background tagger on every node that writes
//! an incrementing 16-bit identifier into an IP header option of each
//! selected packet, enabling hop-by-hop packet tracking and loss/delay
//! analysis outside the scope of the ExCovery processes. This module
//! reproduces the tagger including its wrap-around behaviour, and provides
//! the matching *sequence reconstruction* used during analysis to count
//! losses between two observation points despite the 16-bit wrap.

/// Per-node tagger state: a 16-bit counter that wraps.
#[derive(Debug, Clone, Default)]
pub struct Tagger {
    next: u16,
}

impl Tagger {
    /// Creates a tagger starting at 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates a tagger starting at an arbitrary value (e.g. resumed state).
    pub fn starting_at(v: u16) -> Self {
        Self { next: v }
    }

    /// Stamps the next packet: returns the identifier and increments
    /// (wrapping at 2^16, as a real 16-bit header option would).
    pub fn stamp(&mut self) -> u16 {
        let v = self.next;
        self.next = self.next.wrapping_add(1);
        v
    }
}

/// Reconstructs how many tags were skipped between two *consecutive
/// observations* of the same tagger stream, accounting for wrap-around.
///
/// Returns `None` if `current` appears to be a reordered (older) tag —
/// distinguishable from a long gap only up to half the counter space, the
/// standard serial-number-arithmetic convention (RFC 1982).
pub(crate) fn gap_between(previous: u16, current: u16) -> Option<u16> {
    let forward = current.wrapping_sub(previous);
    if forward == 0 {
        return Some(0); // duplicate observation
    }
    if forward <= u16::MAX / 2 {
        Some(forward - 1) // packets lost strictly between the two
    } else {
        None // reordering: current is "before" previous
    }
}

/// Summarizes a tagged stream observed at a measurement point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Observed (delivered) packets.
    pub received: u64,
    /// Inferred losses from tag gaps.
    pub lost: u64,
    /// Observations that arrived out of order.
    pub reordered: u64,
    /// Exact duplicates.
    pub duplicates: u64,
}

impl StreamStats {
    /// Loss ratio `lost / (lost + received)`; 0 for an empty stream.
    pub fn loss_ratio(&self) -> f64 {
        let total = self.lost + self.received;
        if total == 0 {
            0.0
        } else {
            self.lost as f64 / total as f64
        }
    }
}

/// Folds a sequence of observed tags into [`StreamStats`].
pub fn analyze_stream(tags: impl IntoIterator<Item = u16>) -> StreamStats {
    let mut stats = StreamStats::default();
    let mut prev: Option<u16> = None;
    for tag in tags {
        match prev {
            None => stats.received += 1,
            Some(p) => match gap_between(p, tag) {
                Some(0) if tag == p => {
                    stats.duplicates += 1;
                    continue; // do not advance prev
                }
                Some(gap) => {
                    stats.received += 1;
                    stats.lost += u64::from(gap);
                }
                None => {
                    stats.reordered += 1;
                    continue; // keep newest tag as reference
                }
            },
        }
        prev = Some(tag);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_increments_and_wraps() {
        let mut t = Tagger::starting_at(u16::MAX - 1);
        assert_eq!(t.stamp(), u16::MAX - 1);
        assert_eq!(t.stamp(), u16::MAX);
        assert_eq!(t.stamp(), 0);
        assert_eq!(t.stamp(), 1);
    }

    #[test]
    fn gap_simple() {
        assert_eq!(gap_between(5, 6), Some(0));
        assert_eq!(gap_between(5, 9), Some(3));
        assert_eq!(gap_between(5, 5), Some(0));
    }

    #[test]
    fn gap_across_wrap() {
        assert_eq!(gap_between(u16::MAX, 0), Some(0));
        assert_eq!(gap_between(u16::MAX - 1, 2), Some(3));
    }

    #[test]
    fn reordering_detected() {
        assert_eq!(gap_between(10, 9), None);
        assert_eq!(gap_between(0, u16::MAX), None);
    }

    #[test]
    fn analyze_clean_stream() {
        let s = analyze_stream(0..100u16);
        assert_eq!(s.received, 100);
        assert_eq!(s.lost, 0);
        assert_eq!(s.loss_ratio(), 0.0);
    }

    #[test]
    fn analyze_stream_with_losses() {
        let s = analyze_stream([0u16, 1, 4, 5, 9]);
        assert_eq!(s.received, 5);
        assert_eq!(s.lost, 2 + 3);
        assert!((s.loss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn analyze_stream_with_duplicates_and_reordering() {
        let s = analyze_stream([0u16, 1, 1, 3, 2, 4]);
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.reordered, 1);
        assert_eq!(s.received, 4); // 0,1,3,4
        assert_eq!(s.lost, 1); // tag 2 counted lost at the 1->3 step
    }

    #[test]
    fn analyze_stream_across_wrap() {
        let tags = (u16::MAX - 2..=u16::MAX).chain(0..3u16);
        let s = analyze_stream(tags);
        assert_eq!(s.received, 6);
        assert_eq!(s.lost, 0);
    }

    #[test]
    fn empty_stream() {
        let s = analyze_stream(std::iter::empty());
        assert_eq!(s, StreamStats::default());
        assert_eq!(s.loss_ratio(), 0.0);
    }
}
