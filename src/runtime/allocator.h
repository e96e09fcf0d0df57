// Topology-aware global memory allocation (paper §4.4).
//
// "We will treat the global memory in each compute node as a collection of
// NUMA domains accessible via the UNIMEM interface. We will explore
// topology-aware global memory allocators in these domains, to be used by
// the OpenCL runtime for implicit data allocation, migration and
// replication between workers."
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "address/address.h"
#include "common/units.h"
#include "unimem/pgas.h"

namespace ecoscale {

enum class Distribution {
  kLocal,   // whole buffer in one worker's domain
  kBlock,   // contiguous chunks across workers (locality-preserving)
  kCyclic,  // page-granular round-robin (bandwidth-spreading)
};

struct BufferPartition {
  WorkerCoord home;
  GlobalAddress base;
  Bytes offset = 0;  // byte offset within the logical buffer
  Bytes size = 0;
};

/// A logically contiguous buffer physically partitioned across NUMA
/// domains. Offsets are logical buffer offsets; partition_of() maps them to
/// the partition (home worker and global base) that holds them.
class DistributedBuffer {
 public:
  DistributedBuffer() = default;
  explicit DistributedBuffer(std::vector<BufferPartition> parts);

  Bytes size() const { return total_; }
  const std::vector<BufferPartition>& partitions() const { return parts_; }

  WorkerCoord home_of(Bytes offset) const;
  const BufferPartition& partition_of(Bytes offset) const;

 private:
  std::vector<BufferPartition> parts_;
  Bytes total_ = 0;
};

class TopologyAllocator {
 public:
  explicit TopologyAllocator(PgasSystem& pgas) : pgas_(pgas) {}

  /// Allocate `total` bytes distributed over `workers`.
  DistributedBuffer allocate(Bytes total, Distribution dist,
                             const std::vector<WorkerCoord>& workers);

 private:
  PgasSystem& pgas_;
};

}  // namespace ecoscale
