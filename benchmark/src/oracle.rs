//! The correctness oracle: an independent reference for every output the
//! benchmark checks. Nothing here calls into the system under test — the
//! corpus is the harness's private copy of what it wrote into the `SimFs`,
//! the response reader is its own, and the kernels are native Rust.

use crate::gen::Rng;

/// What a request must be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expect {
    /// `200 OK` with exactly this corpus file's bytes.
    File(u32),
    /// `404 Not Found` (a generated missing path).
    NotFound,
    /// `400 Bad Request` (a generated malformed line).
    BadRequest,
}

/// What a response turned out to be, read without the system's parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Matches an [`Expect`] class: well-formed, `Content-Length` equal to
    /// the body length, and (for a file) the body equal to the corpus copy.
    Ok(Expect),
    /// A synthesized `503` shed response.
    Shed,
    /// Anything else: malformed, wrong length, or a body that is not the
    /// file it claims to be.
    Wrong,
}

/// One classified response: its outcome and whether (and which)
/// `Content-Type` it carried — present iff the serving version is ≥ v2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub outcome: Outcome,
    /// `None` without a `Content-Type` header; `Some(correct)` with one,
    /// where `correct` says it named the file extension's MIME type.
    pub content_type: Option<bool>,
}

/// The harness's private copy of the document set. Every body starts with
/// a fixed-width `#NNNNN#` tag naming its file, so a response identifies
/// the file it serves and the full body can be compared against the copy.
pub struct Corpus {
    pub paths: Vec<String>,
    pub bodies: Vec<String>,
}

const TAG_LEN: usize = 7;
const EXTENSIONS: [(&str, &str); 3] = [
    ("html", "text/html"),
    ("txt", "text/plain"),
    ("css", "text/css"),
];

impl Corpus {
    /// `files` documents of exactly `size` bytes, deterministic in `seed`.
    pub fn generate(files: usize, size: usize, seed: u64) -> Corpus {
        assert!(size > TAG_LEN && files < 100_000, "corpus shape");
        let mut rng = Rng::new(seed ^ 0xc0ffee);
        let mut paths = Vec::with_capacity(files);
        let mut bodies = Vec::with_capacity(files);
        for i in 0..files {
            let (ext, _) = EXTENSIONS[i % EXTENSIONS.len()];
            paths.push(format!("/d{i:05}.{ext}"));
            let mut body = format!("#{i:05}#");
            while body.len() < size {
                // Printable filler; no CR/LF so a body never looks like a
                // header break.
                body.push((b'a' + (rng.next_u64() % 26) as u8) as char);
            }
            bodies.push(body);
        }
        Corpus { paths, bodies }
    }

    fn mime(&self, file: u32) -> &'static str {
        EXTENSIONS[file as usize % EXTENSIONS.len()].1
    }

    /// Classifies one raw response against the corpus.
    pub fn classify(&self, raw: &str) -> Verdict {
        let wrong = Verdict {
            outcome: Outcome::Wrong,
            content_type: None,
        };
        let Some((head, body)) = raw.split_once("\r\n\r\n") else {
            return wrong;
        };
        let mut lines = head.split("\r\n");
        let Some(status) = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.0 "))
            .and_then(|l| l.split(' ').next())
        else {
            return wrong;
        };
        let mut length = None;
        let mut ctype = None;
        for line in lines {
            let Some((name, value)) = line.split_once(": ") else {
                return wrong;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("content-type") {
                ctype = Some(value);
            }
        }
        if length != Some(body.len()) {
            return wrong;
        }
        let (outcome, want_mime) = match status {
            "200" => {
                let file = body
                    .get(..TAG_LEN)
                    .and_then(|t| t.strip_prefix('#'))
                    .and_then(|t| t.strip_suffix('#'))
                    .and_then(|t| t.parse::<u32>().ok());
                match file {
                    Some(f) if self.bodies.get(f as usize).is_some_and(|b| b == body) => {
                        (Outcome::Ok(Expect::File(f)), Some(self.mime(f)))
                    }
                    _ => return wrong,
                }
            }
            "404" if body == "not found" => (Outcome::Ok(Expect::NotFound), None),
            "400" if body == "bad request" => (Outcome::Ok(Expect::BadRequest), None),
            "503" => (Outcome::Shed, None),
            _ => return wrong,
        };
        Verdict {
            outcome,
            // An error response must carry no type at all.
            content_type: ctype.map(|c| want_mime == Some(c)),
        }
    }
}

/// Native references for the guest kernels in `benchmark/guest/`.
pub mod kernels {
    pub fn fib(n: i64) -> i64 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }

    /// `ping`/`pong` count their own recursion depth.
    pub fn pingpong(n: i64) -> i64 {
        n
    }

    pub fn matmul(n: i64) -> i64 {
        let n = n as usize;
        let a: Vec<i64> = (0..n * n).map(|i| (i % 7) as i64).collect();
        let b: Vec<i64> = (0..n * n).map(|i| (i % 5) as i64).collect();
        (0..n)
            .map(|k| a[(n - 1) * n + k] * b[k * n + (n - 1)])
            .sum()
    }

    pub fn sort(n: i64, mut seed: i64) -> i64 {
        let mut a: Vec<i64> = (0..n)
            .map(|_| {
                seed = (seed * 1_103_515_245 + 12345) % 2_147_483_648;
                seed % 1000
            })
            .collect();
        a.sort_unstable();
        a[0] + a[a.len() - 1]
    }

    pub fn strhash(n: i64, base: i64) -> i64 {
        let mut acc: i64 = 0;
        for i in base..base + n {
            let mut h: i64 = 5381;
            for b in format!("request-{i}-payload").bytes() {
                h = (h * 33 + i64::from(b)) % 1_000_000_007;
            }
            acc = (acc + h) % 1_000_000_007;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(status: &str, ctype: Option<&str>, body: &str) -> String {
        let ct = ctype.map_or(String::new(), |c| format!("Content-Type: {c}\r\n"));
        format!(
            "HTTP/1.0 {status}\r\n{ct}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn classifies_every_response_class() {
        let c = Corpus::generate(6, 64, 1);
        let ok = c.classify(&render("200 OK", Some("text/plain"), &c.bodies[1]));
        assert_eq!(ok.outcome, Outcome::Ok(Expect::File(1)));
        assert_eq!(ok.content_type, Some(true));
        let v1 = c.classify(&render("200 OK", None, &c.bodies[3]));
        assert_eq!(v1.outcome, Outcome::Ok(Expect::File(3)));
        assert_eq!(v1.content_type, None);
        let bad_type = c.classify(&render("200 OK", Some("text/css"), &c.bodies[0]));
        assert_eq!(bad_type.content_type, Some(false));
        assert_eq!(
            c.classify(&render("404 Not Found", None, "not found"))
                .outcome,
            Outcome::Ok(Expect::NotFound)
        );
        assert_eq!(
            c.classify(&render("400 Bad Request", None, "bad request"))
                .outcome,
            Outcome::Ok(Expect::BadRequest)
        );
        assert_eq!(
            c.classify(&render("503 Service Unavailable", None, "overloaded"))
                .outcome,
            Outcome::Shed
        );
    }

    #[test]
    fn rejects_wrong_bytes_and_wrong_lengths() {
        let c = Corpus::generate(4, 64, 1);
        let mut body = c.bodies[2].clone();
        body.pop();
        body.push('!');
        assert_eq!(
            c.classify(&render("200 OK", None, &body)).outcome,
            Outcome::Wrong
        );
        let short = format!(
            "HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\n{}",
            c.bodies[0]
        );
        assert_eq!(c.classify(&short).outcome, Outcome::Wrong);
        assert_eq!(c.classify("garbage").outcome, Outcome::Wrong);
        assert_eq!(
            c.classify(&render("200 OK", None, "#00009#no such file"))
                .outcome,
            Outcome::Wrong
        );
    }

    #[test]
    fn native_kernels_match_the_known_answers() {
        assert_eq!(kernels::fib(18), 2584);
        assert_eq!(kernels::pingpong(4000), 4000);
        assert_eq!(kernels::matmul(16), 97);
        assert_eq!(kernels::sort(150, 12345), 995);
        assert_eq!(kernels::strhash(400, 0), 526_479_778);
    }
}
