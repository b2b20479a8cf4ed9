//! Offline stand-in for `serde_derive`.
//!
//! No library crate of the workspace serializes through serde, so the
//! derives expand to nothing; they exist so `#[derive(Serialize,
//! Deserialize)]` and `#[serde(..)]` field attributes keep compiling.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
