//! The char-by-char tokenizer this crate shipped before `for_each_term`
//! walked text with an ASCII fast path and lent its tokens.  Kept verbatim so
//! that both reference builds tokenise with code the shipping builds do not
//! share, and so that the visitor is judged against it directly.

/// Splits text into normalised tokens, in text order.
pub fn terms(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut chars = text.chars().peekable();

    while let Some(c) = chars.next() {
        if c.is_alphanumeric() {
            // `İ` lower-cases to `i` and a combining dot, which is no
            // alphanumeric: keeping it would split the token on a second pass.
            current.extend(c.to_lowercase().filter(|l| l.is_alphanumeric()));
        } else if c == '.' && !current.is_empty() && current.chars().all(|c| c.is_ascii_digit()) {
            // Keep decimal points inside numbers ("16.9", "12.31") but only if
            // a digit follows; a trailing period ends the token.
            if chars.peek().map(|n| n.is_ascii_digit()).unwrap_or(false) {
                current.push('.');
            } else {
                flush(&mut tokens, &mut current);
            }
        } else {
            flush(&mut tokens, &mut current);
        }
    }
    flush(&mut tokens, &mut current);
    tokens
}

fn flush(tokens: &mut Vec<String>, current: &mut String) {
    if !current.is_empty() {
        tokens.push(std::mem::take(current));
    }
}
