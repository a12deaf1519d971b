#include "gbl/quantities.hpp"

#include <utility>

namespace obscorr::gbl {

AggregateQuantities aggregate_quantities(const DcsrMatrix& a) {
  AggregateQuantities q;
  q.valid_packets = a.reduce_sum();
  q.unique_links = a.nnz();
  q.max_link_packets = a.reduce_max();
  const SparseVec src_packets = a.reduce_rows();
  const SparseVec src_fanout = a.reduce_rows_pattern();
  const auto [dst_packets, dst_fanin] = a.reduce_cols_and_pattern();
  q.unique_sources = src_packets.nnz();
  q.max_source_packets = src_packets.reduce_max();
  q.max_source_fanout = src_fanout.reduce_max();
  q.unique_destinations = dst_packets.nnz();
  q.max_destination_packets = dst_packets.reduce_max();
  q.max_destination_fanin = dst_fanin.reduce_max();
  return q;
}

EntityQuantities entity_quantities(const DcsrMatrix& a) {
  auto [dst_packets, dst_fanin] = a.reduce_cols_and_pattern();
  return EntityQuantities{
      .source_packets = a.reduce_rows(),
      .source_fanout = a.reduce_rows_pattern(),
      .destination_packets = std::move(dst_packets),
      .destination_fanin = std::move(dst_fanin),
  };
}

}  // namespace obscorr::gbl
