#ifndef WHYQ_GRAPH_GRAPH_IO_H_
#define WHYQ_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "graph/update.h"

namespace whyq {

/// Text serialization of attributed graphs.
///
/// Line-oriented, whitespace-separated format:
///   # comment
///   N <label> [<attr>=<typed-value> ...]     node; ids are implicit 0..n-1
///   E <src-id> <dst-id> <edge-label>
/// Typed values: `i:42` (int), `d:3.5` (double), `s:text` (string; no
/// whitespace — intended for generated/identifier-like values).
///
/// Write and read round-trip exactly (modulo comment lines).
void WriteGraph(const Graph& g, std::ostream& os);
bool WriteGraphToFile(const Graph& g, const std::string& path);

/// Parses a graph; on malformed input returns std::nullopt and, when
/// `error` is non-null, a line-numbered message.
std::optional<Graph> ReadGraph(std::istream& is, std::string* error);
std::optional<Graph> ReadGraphFromFile(const std::string& path,
                                       std::string* error);

/// Parses a single typed value token (`i:`, `d:`, `s:` forms).
std::optional<Value> ParseTypedValue(const std::string& token);
/// Formats a value as a typed token.
std::string FormatTypedValue(const Value& v);

/// Text serialization of update batches (docs/ARCHITECTURE.md "Mutable
/// graphs & epochs"). Line-oriented op mnemonics, applied in file order;
/// `#` lines are comments. Typed values use the same `i:`/`d:`/`s:` forms
/// as the graph format.
///   AN <label>                          add node (id = node count at apply)
///   DN <node-id>                        delete (tombstone) node
///   AE <src-id> <dst-id> <edge-label>   add edge src -> dst
///   DE <src-id> <dst-id> <edge-label>   delete edge src -> dst
///   SA <node-id> <attr>=<typed-value>   set (or overwrite) attribute
///   DA <node-id> <attr>                 delete attribute
///
/// Write and read round-trip exactly (modulo comment lines).
void WriteUpdateBatch(const UpdateBatch& batch, std::ostream& os);

/// Parses an update batch; on malformed input returns std::nullopt and,
/// when `error` is non-null, a line-numbered message. Ops are validated
/// against a concrete graph only at ApplyUpdate time, not here.
std::optional<UpdateBatch> ReadUpdateBatch(std::istream& is,
                                           std::string* error);
std::optional<UpdateBatch> ReadUpdateBatchFromFile(const std::string& path,
                                                   std::string* error);

}  // namespace whyq

#endif  // WHYQ_GRAPH_GRAPH_IO_H_
