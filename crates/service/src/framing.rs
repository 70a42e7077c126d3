//! Newline framing shared by the daemon and the client: one reused
//! buffer per connection, and every received byte is searched for `\n`
//! exactly once, so a long line costs linear time however many reads
//! deliver it.

use std::io::{self, Read};

/// Initial size of the per-connection read buffer; it grows only for a
/// line that does not fit.
const INITIAL_CAPACITY: usize = 64 * 1024;

/// A receive buffer that hands out complete lines as slices.
///
/// `buf[start..filled]` holds received bytes not yet handed out as
/// lines; `buf[start..scanned]` is known to contain no `\n`.
pub(crate) struct LineBuf {
    buf: Vec<u8>,
    start: usize,
    scanned: usize,
    filled: usize,
}

impl LineBuf {
    pub(crate) fn new() -> Self {
        Self {
            buf: vec![0; INITIAL_CAPACITY],
            start: 0,
            scanned: 0,
            filled: 0,
        }
    }

    /// The next complete line (without its `\n`), if one has arrived.
    pub(crate) fn next_line(&mut self) -> Option<&[u8]> {
        match self.find_newline() {
            Some(newline) => Some(self.take(newline)),
            None => None,
        }
    }

    /// Block on `r` until a complete line has arrived and return it.
    ///
    /// # Errors
    /// Read errors, and `UnexpectedEof` if `r` ends mid-line.
    pub(crate) fn read_line(&mut self, r: &mut impl Read) -> io::Result<&[u8]> {
        loop {
            if let Some(newline) = self.find_newline() {
                return Ok(self.take(newline));
            }
            if self.fill(r)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the connection mid-line",
                ));
            }
        }
    }

    /// Index of the next `\n`, scanning only bytes not searched before.
    fn find_newline(&mut self) -> Option<usize> {
        match self.buf[self.scanned..self.filled]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(pos) => Some(self.scanned + pos),
            None => {
                self.scanned = self.filled;
                None
            }
        }
    }

    /// Hand out the line ending at `newline` and consume it.
    fn take(&mut self, newline: usize) -> &[u8] {
        let line_start = self.start;
        self.start = newline + 1;
        self.scanned = self.start;
        &self.buf[line_start..newline]
    }

    /// Bytes of the unfinished line received so far.
    pub(crate) fn partial_len(&self) -> usize {
        self.filled - self.start
    }

    /// One `read` into the free tail of the buffer, first moving the
    /// unfinished line to the front (or doubling the buffer when that line
    /// already fills it). Returns the byte count `read` returned.
    pub(crate) fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start == self.filled {
            self.start = 0;
            self.scanned = 0;
            self.filled = 0;
        } else if self.filled == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.filled, 0);
                self.scanned -= self.start;
                self.filled -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(2 * self.buf.len(), 0);
            }
        }
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes in fixed-size pieces.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.1.min(self.0.len()).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn lines(input: &[u8], piece: usize) -> Vec<Vec<u8>> {
        let mut src = Trickle(input, piece);
        let mut lb = LineBuf::new();
        let mut got = Vec::new();
        while lb.fill(&mut src).unwrap() > 0 {
            while let Some(l) = lb.next_line() {
                got.push(l.to_vec());
            }
        }
        assert_eq!(
            lb.partial_len(),
            input.len() - input.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1)
        );
        got
    }

    #[test]
    fn splits_lines_across_any_read_boundaries() {
        let long = vec![b'x'; 3 * INITIAL_CAPACITY + 17];
        let mut input = b"a\n\nbc\r\n".to_vec();
        input.extend_from_slice(&long);
        input.extend_from_slice(b"\nlast\ntail");
        let want: Vec<Vec<u8>> = vec![
            b"a".to_vec(),
            Vec::new(),
            b"bc\r".to_vec(),
            long,
            b"last".to_vec(),
        ];
        for piece in [1, 2, 7, 4096, INITIAL_CAPACITY, usize::MAX] {
            assert_eq!(lines(&input, piece), want, "piece {piece}");
        }
    }
}
