//! Test-only support shared by the engine property tests: the naive
//! reference checker and the glue that reads the engine's outputs back
//! as its findings.

#![allow(dead_code)]

pub mod oracle;
pub mod reference;
