#pragma once
// In-process cache of one-shot local-stage results (RomModel), shared by
// every simulator a sweep engine spins up. The local stage is the single
// most expensive step of a cold query (its factorization plus n+1 basis
// solves), and every scenario over one block spec needs the identical
// model — so the sweep engine keys models by the same fingerprint the
// on-disk cache uses and hands all simulators shared immutable instances.
//
// A util::SingleFlightCache recorded as `rom.model_cache.*`: concurrent
// workers racing on one key run the local stage exactly once. Complements
// (does not replace) the on-disk cache — the builder a simulator passes in
// checks disk first.

#include <memory>

#include "rom/rom_model.hpp"
#include "util/single_flight_cache.hpp"

namespace ms::rom {

class ModelCache : public util::SingleFlightCache<std::shared_ptr<const RomModel>> {
 public:
  using ModelPtr = std::shared_ptr<const RomModel>;
  ModelCache() : SingleFlightCache("rom.model_cache") {}
};

}  // namespace ms::rom
