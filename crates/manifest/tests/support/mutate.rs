//! Hostile text edits for the no-panic parser properties. Shared by the
//! manifest proptests and (through `#[path]`) the trace proptests.

/// What a hostile document puts in place of a digit run.
const HOSTILE_NUMBERS: [&str; 5] = ["0", "-1", "18446744073709551615", "1e308", "NaN"];

/// One edit of `text`, chosen by `kind` and placed by `pick`: truncate at
/// a byte, flip a byte, duplicate or drop a line, put a hostile number in
/// place of a digit run, or insert a stray `"` or `,`.
pub fn mutate(text: &str, kind: u8, pick: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let len = bytes.len();
    match kind % 6 {
        0 => bytes.truncate(pick % (len + 1)),
        1 if len > 0 => bytes[pick % len] ^= 1 << (pick / len % 8),
        2 | 3 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let i = pick % lines.len();
                if kind % 6 == 2 {
                    lines.insert(i, lines[i]);
                } else {
                    lines.remove(i);
                }
            }
            return lines.join("\n") + "\n";
        }
        4 => {
            let runs: Vec<(usize, usize)> = (0..len)
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .map(|start| {
                    let end = (start..len)
                        .find(|&j| !bytes[j].is_ascii_digit())
                        .unwrap_or(len);
                    (start, end)
                })
                .collect();
            if !runs.is_empty() {
                let (start, end) = runs[pick % runs.len()];
                let number = HOSTILE_NUMBERS[pick / runs.len() % HOSTILE_NUMBERS.len()];
                bytes.splice(start..end, number.bytes());
            }
        }
        5 => bytes.insert(
            pick % (len + 1),
            if pick.is_multiple_of(2) { b'"' } else { b',' },
        ),
        _ => {}
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
