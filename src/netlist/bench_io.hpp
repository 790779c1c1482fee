/// \file bench_io.hpp
/// \brief Reader/writer for the ISCAS85 ".bench" netlist format.
///
/// Grammar accepted (case-insensitive keywords, '#' to end of line is a
/// comment, whitespace as std::isspace defines it, CR included):
///
///   INPUT(name)
///   OUTPUT(name)
///   name = OP(arg1, arg2, ...)      OP in {NOT, INV, BUF, BUFF, AND, NAND,
///                                          OR, NOR, XOR, XNOR}
///
/// Quirks real files rely on (pinned by name in tests/bench_io_test.cpp):
/// directives are case-insensitive too (`input(a)`); one trailing comma is
/// accepted (`AND(a, b,)` has two operands) while any other empty operand
/// is an error; a '#' may follow ')' directly; CRLF line ends parse like LF
/// and line numbers count '\n' only; and every INPUT takes an id below
/// every gate, even when it comes after gate definitions.
///
/// Gates may be referenced before they are defined (the format does not
/// order definitions). Operators whose arity exceeds the cell library's
/// native fanin (4 for NAND/NOR, 3 for AND/OR, 2 for XOR/XNOR) are
/// decomposed into balanced trees of library cells; the synthesized
/// intermediate gates get "<name>__tN" names. Sequential elements (DFF) are
/// rejected — statleak models combinational ISCAS85-class logic only.
///
/// The reader is hardened against malformed input: truncated files, cyclic
/// definitions, duplicate OUTPUT declarations, redefined signals and
/// operators with more than 1024 operands all raise a clean statleak::Error
/// (never a crash or unbounded allocation); see the fuzz corpus in
/// tests/bench_io_test.cpp and the differential test against the reference
/// reader in tests/bench_reader_oracle.hpp.

#pragma once

#include <iosfwd>
#include <string>

#include "netlist/circuit.hpp"

namespace statleak {

/// Parses a .bench netlist from a stream. Returns a finalized circuit.
/// Throws statleak::Error with a line number on any syntax/semantic problem.
Circuit read_bench(std::istream& in, const std::string& circuit_name);

/// Parses a .bench netlist held in a string, in place.
Circuit read_bench_string(const std::string& text,
                          const std::string& circuit_name);

/// Reads a .bench file from disk.
Circuit read_bench_file(const std::string& path);

/// Serializes a circuit to .bench. Kinds the format lacks (AOI21, OAI21,
/// MUX2) are decomposed into native operators with "__w"-suffixed helper
/// nets, so the file round-trips to logically equivalent (not structurally
/// identical) circuits.
void write_bench(std::ostream& out, const Circuit& circuit);

/// Serializes to a string.
std::string write_bench_string(const Circuit& circuit);

}  // namespace statleak
