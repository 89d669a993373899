#include "core/predictor.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace astra::core {

void PredictorEngine::Observe(const logs::MemoryErrorRecord& record,
                              std::uint64_t seq) {
  ObserveInDimm(dimms_[GlobalDimmIndex(record.node, record.slot)], record, seq);
}

void PredictorEngine::ObserveBatch(std::span<const logs::MemoryErrorRecord> batch,
                                   std::uint64_t first_seq) {
  // Error streams cluster by DIMM, so consecutive records usually hit the
  // same slot; the memo skips the tree descent (map nodes never move, so
  // the pointer stays valid across insertions of other DIMMs).
  std::int64_t last_dimm = 0;
  DimmState* state = nullptr;
  std::uint64_t seq = first_seq;
  for (const auto& record : batch) {
    const std::int64_t dimm = GlobalDimmIndex(record.node, record.slot);
    if (state == nullptr || dimm != last_dimm) {
      state = &dimms_[dimm];
      last_dimm = dimm;
    }
    ObserveInDimm(*state, record, seq++);
  }
}

void PredictorEngine::ObserveInDimm(DimmState& state,
                                    const logs::MemoryErrorRecord& record,
                                    std::uint64_t seq) {
  if (record.type == logs::FailureType::kUncorrectable) {
    // Only the earliest DUE matters — and in a time-sorted replay the first
    // DUE seen is the one with the minimum timestamp.
    if (!state.due_seen || record.timestamp.Seconds() < state.first_due) {
      state.due_seen = true;
      state.first_due = record.timestamp.Seconds();
    }
    return;
  }

  const Moment moment{record.timestamp.Seconds(), seq};
  if (config_.ce_count_threshold > 0) {
    const std::size_t limit = config_.ce_count_threshold;
    if (state.ce_smallest.size() < limit) {
      state.ce_smallest.push_back(moment);
      std::push_heap(state.ce_smallest.begin(), state.ce_smallest.end());
    } else if (moment < state.ce_smallest.front()) {
      std::pop_heap(state.ce_smallest.begin(), state.ce_smallest.end());
      state.ce_smallest.back() = moment;
      std::push_heap(state.ce_smallest.begin(), state.ce_smallest.end());
    }
  }
  state.NoteBit(record.physical_address, record.bit_position, moment);
}

void PredictorEngine::DimmState::NoteBit(std::uint64_t address, std::int32_t bit,
                                         Moment moment) {
  // Grow at 0.7 load: double the index and re-slot every entry.
  if ((minima.size() + 1) * 10 > index.size() * 7) {
    index.assign(std::max<std::size_t>(index.size() * 2, 16), 0);
    for (std::size_t i = 0; i < minima.size(); ++i) {
      std::uint32_t unused = 0;
      Slot(minima[i].address, minima[i].bit, unused) = static_cast<std::uint32_t>(i + 1);
    }
  }
  std::uint32_t same_address = 0;
  std::uint32_t& slot = Slot(address, bit, same_address);
  if (slot == 0) {
    // A new bit joins its address's chain right after the entry met.
    minima.push_back({address, bit, 0, moment});
    slot = static_cast<std::uint32_t>(minima.size());
    if (same_address != 0) {
      minima.back().next_bit = std::exchange(minima[same_address - 1].next_bit, slot);
    }
  } else if (moment < minima[slot - 1].first) {
    minima[slot - 1].first = moment;
  }
}

std::uint32_t& PredictorEngine::DimmState::Slot(std::uint64_t address,
                                                std::int32_t bit,
                                                std::uint32_t& same_address) {
  const std::size_t mask = index.size() - 1;
  std::size_t i = MixSeed(address) & mask;
  for (; index[i] != 0; i = (i + 1) & mask) {
    const BitMinimum& entry = minima[index[i] - 1];
    if (entry.address != address) continue;
    if (entry.bit == bit) break;
    same_address = index[i];
  }
  return index[i];
}

void PredictorEngine::MergeDimm(DimmState& into, const DimmState& from) const {
  if (from.due_seen &&
      (!into.due_seen || from.first_due < into.first_due)) {
    into.due_seen = true;
    into.first_due = from.first_due;
  }
  for (const BitMinimum& entry : from.minima) {
    into.NoteBit(entry.address, entry.bit, entry.first);
  }
  if (config_.ce_count_threshold > 0 && !from.ce_smallest.empty()) {
    // The N smallest of (N smallest of A) ∪ (N smallest of B) are the N
    // smallest of A ∪ B, so the merged heap equals the serial one.
    into.ce_smallest.insert(into.ce_smallest.end(), from.ce_smallest.begin(),
                            from.ce_smallest.end());
    std::sort(into.ce_smallest.begin(), into.ce_smallest.end());
    const std::size_t limit = config_.ce_count_threshold;
    if (into.ce_smallest.size() > limit) into.ce_smallest.resize(limit);
    std::make_heap(into.ce_smallest.begin(), into.ce_smallest.end());
  }
}

bool PredictorEngine::MergeFrom(const PredictorEngine& other) {
  if (&other == this) return false;
  if (!(config_ == other.config_)) return false;
  for (const auto& [dimm, from] : other.dimms_) {
    const auto [it, inserted] = dimms_.try_emplace(dimm);
    if (inserted) {
      it->second = from;
    } else {
      MergeDimm(it->second, from);
    }
  }
  return true;
}

std::vector<DimmVerdict> PredictorEngine::Verdicts() const {
  std::vector<DimmVerdict> verdicts;
  std::vector<bool> chained;
  std::vector<Moment> address_firsts;

  for (const auto& [dimm, state] : dimms_) {
    // Earliest firing moment of each enabled rule in a time-sorted replay.
    std::optional<Moment> multibit_at;
    address_firsts.clear();
    if (config_.flag_multibit_word_signature ||
        config_.distinct_address_threshold > 0) {
      // Each address once, from its first entry in the table, which heads
      // its chain; the entries the walk reaches are skipped later.
      const std::vector<BitMinimum>& minima = state.minima;
      chained.assign(minima.size(), false);
      for (std::size_t i = 0; i < minima.size(); ++i) {
        if (chained[i]) continue;
        // The address appears with its 1st distinct bit and turns multi-bit
        // when its 2nd appears.
        Moment smallest = minima[i].first;
        std::optional<Moment> second;
        for (std::uint32_t j = minima[i].next_bit; j != 0; j = minima[j - 1].next_bit) {
          chained[j - 1] = true;
          const Moment m = minima[j - 1].first;
          if (m < smallest) {
            second = smallest;
            smallest = m;
          } else if (!second || m < *second) {
            second = m;
          }
        }
        if (config_.flag_multibit_word_signature && second &&
            (!multibit_at || *second < *multibit_at)) {
          multibit_at = second;
        }
        address_firsts.push_back(smallest);
      }
    }
    std::optional<Moment> volume_at;
    if (config_.ce_count_threshold > 0 &&
        state.ce_smallest.size() >= config_.ce_count_threshold) {
      volume_at = state.ce_smallest.front();  // max of the N smallest = Nth CE
    }
    std::optional<Moment> footprint_at;
    if (config_.distinct_address_threshold > 0 &&
        address_firsts.size() >= config_.distinct_address_threshold) {
      // The rule fires when the K-th distinct address first appears.
      const auto kth =
          address_firsts.begin() + (config_.distinct_address_threshold - 1);
      std::nth_element(address_firsts.begin(), kth, address_firsts.end());
      footprint_at = *kth;
    }

    // Rules are checked in priority order at the record that first fires
    // any of them; with equal moments the same priority applies here.
    DimmVerdict verdict;
    std::optional<Moment> flagged_moment;
    for (const auto& [candidate, rule] :
         {std::pair{multibit_at, FlagRule::kMultibitWord},
          std::pair{volume_at, FlagRule::kCeVolume},
          std::pair{footprint_at, FlagRule::kFootprint}}) {
      if (candidate && (!flagged_moment || *candidate < *flagged_moment)) {
        flagged_moment = candidate;
        verdict.rule = rule;
      }
    }
    if (!flagged_moment && !state.due_seen) continue;
    verdict.dimm = dimm;
    verdict.flagged_at = flagged_moment ? flagged_moment->ts : 0;
    verdict.due_seen = state.due_seen;
    verdict.first_due = state.first_due;
    verdicts.push_back(verdict);
  }
  return verdicts;
}

PredictionEvaluation PredictorEngine::Finalize() const {
  return EvaluateVerdicts(Verdicts(), config_);
}

PredictionEvaluation EvaluateVerdicts(std::span<const DimmVerdict> verdicts,
                                      const PredictorConfig& config) {
  PredictionEvaluation evaluation;
  std::vector<double> lead_days;
  for (const DimmVerdict& verdict : verdicts) {
    const bool flagged = verdict.rule != FlagRule::kNone;
    if (flagged) {
      ++evaluation.dimms_flagged;
      DimmFlag flag;
      flag.node = static_cast<NodeId>(verdict.dimm / kDimmSlotsPerNode);
      flag.slot = static_cast<DimmSlot>(verdict.dimm % kDimmSlotsPerNode);
      flag.flagged_at = SimTime{verdict.flagged_at};
      switch (verdict.rule) {
        case FlagRule::kMultibitWord:
          flag.reason = "multi-bit word signature";
          break;
        case FlagRule::kCeVolume:
          flag.reason = "CE volume >= " + std::to_string(config.ce_count_threshold);
          break;
        default:
          flag.reason = "footprint >= " +
                        std::to_string(config.distinct_address_threshold) +
                        " addresses";
          break;
      }
      evaluation.flags.push_back(std::move(flag));
    }
    if (verdict.due_seen) ++evaluation.dimms_with_due;

    if (flagged && verdict.due_seen) {
      const std::int64_t lead = verdict.first_due - verdict.flagged_at;
      if (lead >= config.lead_time_seconds) {
        ++evaluation.true_positives;
        lead_days.push_back(static_cast<double>(lead) /
                            static_cast<double>(SimTime::kSecondsPerDay));
      } else {
        ++evaluation.late_flags;
      }
    } else if (flagged) {
      ++evaluation.false_positives;
    } else if (verdict.due_seen) {
      ++evaluation.missed;
    }
  }
  evaluation.missed += evaluation.late_flags;  // late flags are also misses
  evaluation.median_lead_time_days = stats::Median(lead_days);

  // (node, slot) breaks flag-time ties so the flag list is a pure function
  // of the record set — the keystone of the drivers' byte-identical parity.
  std::sort(evaluation.flags.begin(), evaluation.flags.end(),
            [](const DimmFlag& a, const DimmFlag& b) {
              if (a.flagged_at != b.flagged_at) return a.flagged_at < b.flagged_at;
              if (a.node != b.node) return a.node < b.node;
              return a.slot < b.slot;
            });
  return evaluation;
}

void PredictorEngine::Snapshot(binio::Writer& writer) const {
  std::vector<BitMinimum> sorted;
  writer.PutU64(dimms_.size());
  for (const auto& [dimm, state] : dimms_) {
    writer.PutI64(dimm);
    writer.PutBool(state.due_seen);
    writer.PutI64(state.first_due);
    sorted = state.minima;
    std::sort(sorted.begin(), sorted.end(), [](const BitMinimum& a, const BitMinimum& b) {
      return a.address != b.address ? a.address < b.address : a.bit < b.bit;
    });
    std::uint64_t address_count = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i == 0 || sorted[i].address != sorted[i - 1].address) ++address_count;
    }
    writer.PutU64(address_count);
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t end = i + 1;
      while (end < sorted.size() && sorted[end].address == sorted[i].address) ++end;
      writer.PutU64(sorted[i].address);
      writer.PutU64(end - i);
      for (; i < end; ++i) {
        writer.PutI32(sorted[i].bit);
        writer.PutI64(sorted[i].first.ts);
        writer.PutU64(sorted[i].first.seq);
      }
    }
    std::vector<Moment> heap = state.ce_smallest;
    std::sort(heap.begin(), heap.end());
    writer.PutU64(heap.size());
    for (const Moment& m : heap) {
      writer.PutI64(m.ts);
      writer.PutU64(m.seq);
    }
  }
}

bool PredictorEngine::Restore(binio::Reader& reader) {
  const std::uint64_t dimm_count = reader.GetU64();
  if (!reader.CanReadItems(dimm_count, 8)) return false;
  for (std::uint64_t d = 0; d < dimm_count; ++d) {
    const std::int64_t dimm = reader.GetI64();
    DimmState state;
    state.due_seen = reader.GetBool();
    state.first_due = reader.GetI64();
    const std::uint64_t addr_count = reader.GetU64();
    if (!reader.CanReadItems(addr_count, 16)) return false;
    for (std::uint64_t a = 0; a < addr_count; ++a) {
      const std::uint64_t addr = reader.GetU64();
      const std::uint64_t bit_count = reader.GetU64();
      if (!reader.CanReadItems(bit_count, 20)) return false;
      for (std::uint64_t b = 0; b < bit_count; ++b) {
        const std::int32_t bit = reader.GetI32();
        Moment moment;
        moment.ts = reader.GetI64();
        moment.seq = reader.GetU64();
        state.NoteBit(addr, bit, moment);
      }
    }
    // A heap longer than the threshold re-encodes unchanged: refuse it here.
    const std::uint64_t heap_count = reader.GetU64();
    if (heap_count > config_.ce_count_threshold || !reader.CanReadItems(heap_count, 16)) {
      return false;
    }
    for (std::uint64_t i = 0; i < heap_count; ++i) {
      Moment moment;
      moment.ts = reader.GetI64();
      moment.seq = reader.GetU64();
      state.ce_smallest.push_back(moment);
    }
    std::make_heap(state.ce_smallest.begin(), state.ce_smallest.end());
    dimms_.emplace(dimm, std::move(state));
  }
  return reader.Ok();
}

PredictionEvaluation EvaluatePredictor(std::span<const logs::MemoryErrorRecord> records,
                                       const PredictorConfig& config) {
  PredictorEngine engine(config);
  std::uint64_t seq = 0;
  for (const auto& record : records) engine.Observe(record, seq++);
  return engine.Finalize();
}

}  // namespace astra::core
