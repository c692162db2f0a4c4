#include "reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <sstream>

#include "query/result.hpp"

namespace perfbench {

namespace {

const std::string& region_of(const StarData& d, std::int64_t custkey) {
  return d.c_region[static_cast<std::size_t>(custkey)];
}
const std::string& segment_of(const StarData& d, std::int64_t custkey) {
  return d.c_segment[static_cast<std::size_t>(custkey)];
}

struct CountSum {
  std::int64_t count = 0;
  std::int64_t sum = 0;
};

/// Rows of a grouped (key, count, sum) result ordered by sum descending,
/// cut to `limit`.
std::vector<Row> top_by_sum(const std::map<std::string, CountSum>& groups,
                            std::size_t limit) {
  std::vector<std::pair<std::string, CountSum>> v(groups.begin(),
                                                  groups.end());
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.second.sum > b.second.sum;
  });
  if (v.size() > limit) v.resize(limit);
  std::vector<Row> rows;
  for (const auto& [key, cs] : v) rows.push_back({key, cs.count, cs.sum});
  return rows;
}

}  // namespace

std::vector<Statement> star_queries(const StarData& d) {
  const std::size_t n = d.orderdate.size();
  std::vector<Statement> out;

  {  // Q1: expression SUM over a two-predicate filter, no join.
    double s = 0;
    std::int64_t c = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (d.discount[i] >= 1 && d.discount[i] <= 3 && d.quantity[i] < 25) {
        s += static_cast<double>(d.revenue[i]) *
             static_cast<double>(d.discount[i]) / 100.0;
        ++c;
      }
    out.push_back({"Q1",
                   "SELECT SUM(revenue * discount / 100), COUNT(*) FROM "
                   "lineorder WHERE discount BETWEEN 1 AND 3 AND quantity < 25",
                   {{{s, c}}}});
  }
  {  // Q2: a date slice of the clustered fact table.
    std::int64_t s = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (d.orderdate[i] >= 400 && d.orderdate[i] <= 430) s += d.revenue[i];
    out.push_back({"Q2",
                   "SELECT SUM(revenue) FROM lineorder WHERE orderdate "
                   "BETWEEN 400 AND 430",
                   {{{s}}}});
  }
  {  // Q3: dimension join + aggregate.
    CountSum cs;
    for (std::size_t i = 0; i < n; ++i)
      if (region_of(d, d.custkey[i]) == "europe" && d.discount[i] <= 2) {
        cs.sum += d.revenue[i];
        ++cs.count;
      }
    out.push_back({"Q3",
                   "SELECT SUM(revenue), COUNT(*) FROM lineorder JOIN customer "
                   "ON lineorder.custkey = customer.custkey WHERE "
                   "customer.region = 'europe' AND discount BETWEEN 0 AND 2",
                   {{{cs.sum, cs.count}}}});
  }
  {  // Q4: grouped rollup on the fact table.
    std::map<std::int64_t, std::array<std::int64_t, 3>> g;  // count, sum, qty
    for (std::size_t i = 0; i < n; ++i) {
      auto& a = g[d.discount[i]];
      ++a[0];
      a[1] += d.revenue[i];
      a[2] += d.quantity[i];
    }
    Expected e;
    e.ordered = false;
    for (const auto& [key, a] : g)
      e.rows.push_back({key, a[0], a[1],
                        static_cast<double>(a[2]) / static_cast<double>(a[0])});
    out.push_back({"Q4",
                   "SELECT COUNT(*), SUM(revenue), AVG(quantity) FROM "
                   "lineorder GROUP BY discount",
                   e});
  }
  {  // Q5: dimension join with filters on both sides.
    CountSum cs;
    for (std::size_t i = 0; i < n; ++i)
      if (d.discount[i] >= 4 && d.discount[i] <= 6 &&
          segment_of(d, d.custkey[i]) == "machinery") {
        cs.sum += d.revenue[i];
        ++cs.count;
      }
    out.push_back({"Q5",
                   "SELECT COUNT(*), SUM(revenue) FROM lineorder JOIN customer "
                   "ON lineorder.custkey = customer.custkey WHERE discount "
                   "BETWEEN 4 AND 6 AND customer.segment = 'machinery'",
                   {{{cs.count, cs.sum}}}});
  }
  {  // Q6: join + GROUP BY the dimension attribute.
    std::map<std::string, CountSum> g;
    for (std::size_t i = 0; i < n; ++i) {
      auto& cs = g[region_of(d, d.custkey[i])];
      ++cs.count;
      cs.sum += d.revenue[i];
    }
    Expected e;
    e.ordered = false;
    for (const auto& [key, cs] : g) e.rows.push_back({key, cs.count, cs.sum});
    out.push_back({"Q6",
                   "SELECT COUNT(*), SUM(revenue) FROM lineorder JOIN customer "
                   "ON lineorder.custkey = customer.custkey GROUP BY "
                   "customer.region",
                   e});
  }
  {  // Q7: three-table star join, grouped, top-k.
    std::map<std::string, CountSum> g;
    for (std::size_t i = 0; i < n; ++i)
      if (segment_of(d, d.custkey[i]) == "machinery" &&
          d.d_year[static_cast<std::size_t>(d.orderdate[i])] <= 1996) {
        auto& cs = g[region_of(d, d.custkey[i])];
        ++cs.count;
        cs.sum += d.revenue[i];
      }
    out.push_back({"Q7",
                   "SELECT COUNT(*), SUM(revenue) FROM lineorder JOIN customer "
                   "ON lineorder.custkey = customer.custkey JOIN dates ON "
                   "lineorder.orderdate = dates.datekey WHERE customer.segment "
                   "= 'machinery' AND dates.year <= 1996 GROUP BY "
                   "customer.region ORDER BY SUM(revenue) DESC LIMIT 3",
                   {top_by_sum(g, 3)}});
  }
  {  // Q8: string-keyed star join (priorities) + customer filter, top-k.
    std::map<std::string, std::int64_t> factor;
    for (std::size_t j = 0; j < d.p_prio.size(); ++j)
      factor[d.p_prio[j]] = d.p_factor[j];
    std::map<std::string, CountSum> g;
    std::map<std::string, std::int64_t> max_factor;
    for (std::size_t i = 0; i < n; ++i) {
      const auto f = factor.find(d.prio[i]);
      if (f == factor.end() || segment_of(d, d.custkey[i]) != "auto") continue;
      auto& cs = g[d.prio[i]];
      ++cs.count;
      cs.sum += d.revenue[i];
      auto& m = max_factor.try_emplace(d.prio[i], f->second).first->second;
      m = std::max(m, f->second);
    }
    std::vector<Row> rows = top_by_sum(g, 4);
    for (Row& r : rows) r.push_back(max_factor[std::get<std::string>(r[0])]);
    out.push_back({"Q8",
                   "SELECT COUNT(*), SUM(revenue), MAX(priorities.factor) FROM "
                   "lineorder JOIN priorities ON lineorder.prio = "
                   "priorities.prio JOIN customer ON lineorder.custkey = "
                   "customer.custkey WHERE customer.segment = 'auto' GROUP BY "
                   "priorities.prio ORDER BY SUM(revenue) DESC LIMIT 4",
                   {rows}});
  }
  return out;
}

ShortLookups::ShortLookups(const StarData& data) : data_(data) {
  const std::size_t n = data.c_custkey.size();
  for (const char* seg : kSegments) {
    std::vector<std::int64_t> p(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
      p[i + 1] = p[i] + (data.c_segment[i] == seg ? 1 : 0);
    seg_prefix_.push_back(std::move(p));
  }
}

Statement ShortLookups::next(Rng& rng) const {
  if (rng.below(2) == 0) {
    const std::int64_t lo = rng.below(kCustomers);
    const std::int64_t hi = std::min(kCustomers - 1, lo + rng.below(2000));
    const std::int64_t s = rng.below(4);
    const auto& p = seg_prefix_[static_cast<std::size_t>(s)];
    const std::int64_t count = p[static_cast<std::size_t>(hi) + 1] -
                               p[static_cast<std::size_t>(lo)];
    return {"short-customer",
            "SELECT COUNT(*) FROM customer WHERE custkey BETWEEN " +
                std::to_string(lo) + " AND " + std::to_string(hi) +
                " AND segment = '" + kSegments[s] + "'",
            {{{count}}}};
  }
  const std::int64_t lo = rng.below(kDates);
  const std::int64_t hi = std::min(kDates - 1, lo + rng.below(400));
  std::int64_t count = 0, max_year = 0;
  for (std::size_t i = 0; i < data_.d_datekey.size(); ++i)
    if (data_.d_datekey[i] >= lo && data_.d_datekey[i] <= hi) {
      ++count;
      max_year = std::max(max_year, data_.d_year[i]);
    }
  return {"short-dates",
          "SELECT COUNT(*), MAX(year) FROM dates WHERE datekey BETWEEN " +
              std::to_string(lo) + " AND " + std::to_string(hi),
          {{{count, max_year}}}};
}

BurstQueries::BurstQueries(const EventsData& data)
    : count_prefix_(kEventKeys + 1, 0), sum_prefix_(kEventKeys + 1, 0) {
  for (std::size_t i = 0; i < data.k.size(); ++i) {
    const auto key = static_cast<std::size_t>(data.k[i]) + 1;
    ++count_prefix_[key];
    sum_prefix_[key] += data.v[i];
  }
  for (std::size_t key = 1; key <= kEventKeys; ++key) {
    count_prefix_[key] += count_prefix_[key - 1];
    sum_prefix_[key] += sum_prefix_[key - 1];
  }
}

Statement BurstQueries::next(Rng& rng) const {
  const std::int64_t lo = rng.below(kEventKeys);
  const std::int64_t hi = std::min(kEventKeys - 1, lo + rng.below(200));
  const std::string where = " FROM events WHERE k BETWEEN " +
                            std::to_string(lo) + " AND " + std::to_string(hi);
  const auto a = static_cast<std::size_t>(lo);
  const auto b = static_cast<std::size_t>(hi) + 1;
  if (rng.below(2) == 0)
    return {"burst-count", "SELECT COUNT(*)" + where,
            {{{count_prefix_[b] - count_prefix_[a]}}}};
  return {"burst-sum", "SELECT SUM(v)" + where,
          {{{sum_prefix_[b] - sum_prefix_[a]}}}};
}

namespace {

Cell to_cell(const eidb::storage::Value& v) {
  if (v.is_int()) return v.as_int();
  if (v.is_double()) return v.as_double();
  return v.as_string();
}

bool cell_equal(const Cell& a, const Cell& b) {
  if (a.index() == 2 || b.index() == 2) return a == b;
  if (a.index() == 0 && b.index() == 0) return a == b;
  const auto num = [](const Cell& c) {
    return c.index() == 0 ? static_cast<double>(std::get<0>(c))
                          : std::get<1>(c);
  };
  const double x = num(a), y = num(b);
  return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

std::string render(const Row& r) {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (i) os << ", ";
    std::visit([&](const auto& x) { os << x; }, r[i]);
  }
  os << ")";
  return os.str();
}

}  // namespace

std::string compare(const eidb::query::QueryResult& got, const Expected& want) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < got.row_count(); ++i) {
    Row r;
    for (const auto& v : got.row(i)) r.push_back(to_cell(v));
    rows.push_back(std::move(r));
  }
  if (rows.size() != want.rows.size())
    return "row count " + std::to_string(rows.size()) + ", expected " +
           std::to_string(want.rows.size());
  std::vector<Row> expected = want.rows;
  if (!want.ordered) {
    std::sort(rows.begin(), rows.end());
    std::sort(expected.begin(), expected.end());
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bool same = rows[i].size() == expected[i].size();
    for (std::size_t c = 0; same && c < rows[i].size(); ++c)
      same = cell_equal(rows[i][c], expected[i][c]);
    if (!same)
      return "row " + std::to_string(i) + " " + render(rows[i]) +
             ", expected " + render(expected[i]);
  }
  return {};
}

}  // namespace perfbench
