#include "data.hpp"

#include "core/database.hpp"

namespace perfbench {

using eidb::storage::Column;
using eidb::storage::Schema;
using eidb::storage::TypeId;

StarData make_star(std::uint64_t seed, std::size_t fact_rows) {
  StarData d;
  Rng rng(seed);
  d.orderdate.resize(fact_rows);
  d.custkey.resize(fact_rows);
  d.quantity.resize(fact_rows);
  d.discount.resize(fact_rows);
  d.revenue.resize(fact_rows);
  d.prio.resize(fact_rows);
  for (std::size_t i = 0; i < fact_rows; ++i) {
    // Clustered by date (append order), the realistic fact layout.
    d.orderdate[i] = static_cast<std::int64_t>(i) * kDates /
                     static_cast<std::int64_t>(fact_rows);
    d.custkey[i] = rng.below(kCustomers);
    d.quantity[i] = 1 + rng.below(50);
    d.discount[i] = rng.below(11);
    d.revenue[i] = 1000 + rng.below(100'000);
    d.prio[i] = kFactPrios[rng.below(5)];
  }
  for (std::int64_t k = 0; k < kCustomers; ++k) {
    d.c_custkey.push_back(k);
    d.c_region.emplace_back(kRegions[rng.below(5)]);
    d.c_segment.emplace_back(kSegments[rng.below(4)]);
  }
  for (std::int64_t k = 0; k < kDates; ++k) {
    d.d_datekey.push_back(k);
    d.d_year.push_back(1994 + k / 365);
  }
  d.p_prio = {"bulk", "high", "low", "mid", "urgent"};
  d.p_factor = {3, 8, 1, 5, 13};
  return d;
}

void load_star(eidb::core::Database& db, const StarData& d) {
  auto& lo = db.create_table(
      "lineorder", Schema({{"orderdate", TypeId::kInt64},
                           {"custkey", TypeId::kInt64},
                           {"quantity", TypeId::kInt64},
                           {"discount", TypeId::kInt64},
                           {"revenue", TypeId::kInt64},
                           {"prio", TypeId::kString}}));
  lo.set_column(0, Column::from_int64("orderdate", d.orderdate));
  lo.set_column(1, Column::from_int64("custkey", d.custkey));
  lo.set_column(2, Column::from_int64("quantity", d.quantity));
  lo.set_column(3, Column::from_int64("discount", d.discount));
  lo.set_column(4, Column::from_int64("revenue", d.revenue));
  lo.set_column(5, Column::from_strings("prio", d.prio));

  auto& cu = db.create_table("customer",
                             Schema({{"custkey", TypeId::kInt64},
                                     {"region", TypeId::kString},
                                     {"segment", TypeId::kString}}));
  cu.set_column(0, Column::from_int64("custkey", d.c_custkey));
  cu.set_column(1, Column::from_strings("region", d.c_region));
  cu.set_column(2, Column::from_strings("segment", d.c_segment));

  auto& pr = db.create_table(
      "priorities",
      Schema({{"prio", TypeId::kString}, {"factor", TypeId::kInt64}}));
  pr.set_column(0, Column::from_strings("prio", d.p_prio));
  pr.set_column(1, Column::from_int64("factor", d.p_factor));

  auto& da = db.create_table(
      "dates",
      Schema({{"datekey", TypeId::kInt64}, {"year", TypeId::kInt64}}));
  da.set_column(0, Column::from_int64("datekey", d.d_datekey));
  da.set_column(1, Column::from_int64("year", d.d_year));
}

EventsData make_events(std::uint64_t seed, std::size_t rows) {
  EventsData d;
  Rng rng(seed ^ 0x5eed'e7e7ull);
  d.k.resize(rows);
  d.v.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    d.k[i] = rng.below(kEventKeys);
    d.v[i] = rng.below(1'000'000);
  }
  return d;
}

void load_events(eidb::core::Database& db, const EventsData& d) {
  auto& t = db.create_table(
      "events", Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}));
  t.set_column(0, Column::from_int64("k", d.k));
  t.set_column(1, Column::from_int64("v", d.v));
}

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ull;
  }
  void ints(const std::vector<std::int64_t>& v) {
    bytes(v.data(), v.size() * sizeof(std::int64_t));
  }
  void strings(const std::vector<std::string>& v) {
    for (const std::string& s : v) bytes(s.c_str(), s.size() + 1);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace

std::uint64_t digest(const StarData& d) {
  Fnv f;
  for (const auto* v : {&d.orderdate, &d.custkey, &d.quantity, &d.discount,
                        &d.revenue, &d.c_custkey, &d.d_datekey, &d.d_year,
                        &d.p_factor})
    f.ints(*v);
  for (const auto* v : {&d.prio, &d.c_region, &d.c_segment, &d.p_prio})
    f.strings(*v);
  return f.value();
}

std::uint64_t digest(const EventsData& d) {
  Fnv f;
  f.ints(d.k);
  f.ints(d.v);
  return f.value();
}

}  // namespace perfbench
