// RPC method numbering and message codecs for the ICE entities.
//
// Responses carry the status envelope (net/dispatch.h): a u16 status code,
// then the reply on kOk or a reason string otherwise, so remote failures
// surface as typed RemoteError at the caller instead of killing the
// transport.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "common/bytes.h"
#include "ice/protocol.h"
#include "ice/tag_store.h"
#include "net/dispatch.h"
#include "net/serde.h"
#include "pir/messages.h"

namespace ice::proto {

enum Method : std::uint16_t {
  // CSP service
  // 100 is retired: it reported (n, block_size), and no caller asked
  kCspFetch = 101,      // (index) -> (block)
  kCspWriteBack = 102,  // ([index, block]...) -> ()
  kCspSetKey = 103,     // (N, g, coeff_bits, key_bits) -> ()
  kCspChallenge = 104,  // (e, g_s, [index]...) -> (proof); sampled PDP,
                        // no ladder (c = 1); a repeated index ->
                        // kInvalidArgument

  // Edge service
  kEdgeRead = 200,            // (index) -> (block); fetches from CSP on miss
  kEdgeWrite = 201,           // (index, block) -> (); dirty write
  kEdgeIndexQuery = 202,      // () -> sorted S_j   [paper IndexQuery]
  kEdgeShareBlind = 203,      // (session_id, s~) -> ()
  kEdgeChallenge = 204,       // (session_id, e, g_s, ladder) -> (proof)
  kEdgeBatchChallenge = 205,  // (batch_id, e_j, g_s, ladder) -> (); proof
                              // goes to TPA
  kEdgeFlush = 206,           // () -> (blocks written back)
  kEdgeSubsetProof = 207,     // (e, g_s, [index]...) -> (proof); owner-driven
                              // subset challenge used by localization, no
                              // ladder (c = 1); a repeated index ->
                              // kInvalidArgument

  // TPA service
  kTpaSetKey = 300,         // (N, g, coeff_bits, key_bits, block_bytes)
                            //   -> ()
  kTpaStoreTags = 301,      // ([tag]...) -> (); once per set_key, a
                            //   second -> kFailedPrecondition
                            // 302 is retired: kTpaShardQuery asks for tags
  kTpaStartAudit = 303,     // (edge_id, session_id) -> ()
  kTpaSubmitRepacked = 304, // (session_id, generation, [tag]...)
                            //   -> (verdict); generation names the key
                            //   the tags were retrieved under
  kTpaBatchBegin = 305,     // (batch_id, num_edges) -> (g_s, ladder)
  kTpaSubmitProof = 306,    // (batch_id, proof) -> ()
  kTpaBatchFinish = 307,    // (batch_id, generation, [tag]...)
                            //   -> (verdict); generation as in 304
  kTpaUpdateTag = 308,      // (index, tag) -> (epoch); stages into
                            // the next epoch (data dynamics)
  kTpaTagInfo = 309,        // () -> (n, generation, epoch)
  kTpaShardQuery = 310,     // (generation, epoch, PirQuery)
                            //   -> PirResponse; any other (generation,
                            //   epoch) pair -> kFailedPrecondition
                            // 311 is retired: it split a range shard
                            // 312 is retired: it appended a row
  kTpaCloseEpoch = 313,     // () -> (closed u8, epoch, rows merged);
                            // merges staged updates (DESIGN.md §15)
};

// Client stubs unwrap responses with net::unwrap (net/dispatch.h), which
// throws net::RemoteError on an error envelope.
using net::unwrap;

/// GF(4) vector list codec shared by PIR queries/responses.
void write_gf4_vector(net::Writer& w, const gf::GF4Vector& v);
gf::GF4Vector read_gf4_vector(net::Reader& r);

/// The most points one tag query may carry. Every caller sends at most 40
/// (a benchmark gate), and the paper's largest batch union is J = 10 edges
/// x |S_j| = 10. A query of m points costs the TPA m · 2w(1 + gamma) words
/// of response planes plus (num_shards - 1) times that of scratch, which
/// its thread keeps: about 5.8 MB per shard at the cap for n = 10^3 and
/// about 48 MB per shard at n = 10^6, where a 2^20-point query would have
/// cost tens of GB.
inline constexpr std::size_t kMaxQueryPoints = 1024;

/// The longest point a tag query may carry: gamma_for(2^24), the gamma of
/// the largest store store_tags admits (2^24 tags). A longer point could
/// only be refused later, by the TPA's check against its own gamma, and
/// would first be unpacked at one byte per element (a probe's 67 MB 310 of
/// 16 points of 2^24 elements raised TPA RSS by 248 MB).
inline constexpr std::size_t kMaxQueryPointLength = 468;

void write_pir_query(net::Writer& w, const pir::PirQuery& q);
/// Refuses more than kMaxQueryPoints points with CodecError before it
/// decodes any, and a point longer than kMaxQueryPointLength before it
/// unpacks that point.
pir::PirQuery read_pir_query(net::Reader& r);
/// A 310 reply: the entry count, then per point the K values as one packed
/// GF(4) string and, after the row length K, the gamma gradient rows as
/// another. The codec interleaves the response's bit planes straight into
/// the packed strings and back (pir::pack_plane_pairs). Throws CodecError
/// when the planes do not match the response's shape.
void write_pir_response(net::Writer& w, const pir::PirResponse& resp);
/// Reads a 310 reply that must answer a query of `want.points` points with
/// `want.tag_bits`-bit tags and `want.gamma` gradients. Throws CodecError
/// on any other count, tag width, row length or gradient count, a string
/// of the wrong byte length, a truncated frame, or bits set past a
/// string's last element; the planes are sized from `want`, never from the
/// frame.
pir::PirResponse read_pir_response(net::Reader& r, const pir::PirShape& want);

/// The 309 reply: TagStore::info().
void write_tag_info(net::Writer& w, const TagInfo& info);
TagInfo read_tag_info(net::Reader& r);

/// The 310 request: one m-point PIR query over all n rows, planned against
/// a key generation and a content epoch (the 309 reply's). A TPA holding
/// any other pair refuses it with kFailedPrecondition instead of answering
/// against other rows or other keys' tags.
struct TagQuery {
  std::uint64_t generation = 0;
  std::uint64_t epoch = 0;
  pir::PirQuery query;

  [[nodiscard]] std::size_t total_points() const { return query.size(); }
};
/// 310's enum name and these codec names predate the single tag layout;
/// perfbench's tracer compiles against them.
void write_sharded_query(net::Writer& w, const TagQuery& q);
TagQuery read_sharded_query(net::Reader& r);

/// A challenge's power ladder as it follows g_s in 204, 205 and the 305
/// reply: the rung width L (varint), the rung count (varint), then
/// H_1..H_{c-1}. read_ladder refuses more than kLadderRungs - 1 rungs with
/// CodecError before it reads any; the receiver then checks the values with
/// validate_ladder (ice/protocol.h).
void write_ladder(net::Writer& w, const bn::Ladder& ladder);
bn::Ladder read_ladder(net::Reader& r);

void write_bigint_list(net::Writer& w, const std::vector<bn::BigInt>& v);
std::vector<bn::BigInt> read_bigint_list(net::Reader& r);

void write_index_list(net::Writer& w, const std::vector<std::size_t>& v);
std::vector<std::size_t> read_index_list(net::Reader& r);

/// Refuses (ServiceError kInvalidArgument) a list that names one index
/// twice: 104 and 207 copy one block per listed index, so a repeat would
/// let a small request copy one block without bound. Honest lists are
/// sorted and distinct.
void require_distinct(const std::vector<std::size_t>& indices);

}  // namespace ice::proto
