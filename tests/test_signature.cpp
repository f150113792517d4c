// Object signatures: superimposed coding, screening semantics, and the
// no-false-negative property that keeps BLS/PLS answers exact.
#include <gtest/gtest.h>

#include "isomer/federation/signature.hpp"
#include "isomer/io/catalog.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

TEST(Signature, SetAndContains) {
  Signature sig;
  EXPECT_TRUE(sig.empty());
  sig.set(0);
  sig.set(255);
  sig.set(100);
  EXPECT_FALSE(sig.empty());
  Signature mask;
  mask.set(0);
  mask.set(100);
  EXPECT_TRUE(sig.contains(mask));
  mask.set(7);
  EXPECT_FALSE(sig.contains(mask));
}

TEST(Signature, MasksAreDeterministicAndAttributeSpecific) {
  const Signature a1 = SignatureIndex::value_mask("price", Value(10));
  const Signature a2 = SignatureIndex::value_mask("price", Value(10));
  const Signature b = SignatureIndex::value_mask("stock", Value(10));
  EXPECT_TRUE(a1.contains(a2));
  EXPECT_TRUE(a2.contains(a1));
  EXPECT_FALSE(a1.contains(b));  // overwhelmingly likely with 3 hashes
}

TEST(Signature, NullMaskDistinctFromValueMasks) {
  const Signature null_mask = SignatureIndex::null_mask("price");
  const Signature value_mask = SignatureIndex::value_mask("price", Value(0));
  EXPECT_FALSE(null_mask.contains(value_mask));
}

class SignatureIndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    ParamConfig config;
    config.n_objects = {80, 120};
    const SampleParams sample = draw_sample(config, rng);
    synth_ = materialize_sample(sample);
    index_ = std::make_unique<SignatureIndex>(
        SignatureIndex::build(*synth_.federation));
  }
  SynthFederation synth_;
  std::unique_ptr<SignatureIndex> index_;
};

TEST_F(SignatureIndexFixture, IndexesEveryConstituentObject) {
  std::size_t objects = 0;
  for (const DbId db : synth_.federation->db_ids())
    objects += synth_.federation->db(db).object_count();
  EXPECT_EQ(index_->size(), objects);
}

TEST_F(SignatureIndexFixture, NeverScreensOutAMatchOrANull) {
  // The soundness property: screen() may only say CannotSatisfy when the
  // object's attribute value provably differs from the literal — an actual
  // match or a null must always pass. Checked exhaustively on every object
  // and every predicate attribute of the generated federation.
  const Federation& fed = *synth_.federation;
  for (const DbId db_id : fed.db_ids()) {
    const ComponentDatabase& db = fed.db(db_id);
    for (const GlobalClass& cls : fed.schema().classes()) {
      const auto constituent = cls.constituent_in(db_id);
      if (!constituent) continue;
      const ClassDef& local =
          db.schema().cls(cls.constituents()[*constituent].local_class);
      for (std::size_t a = 0; a < cls.def().attribute_count(); ++a) {
        if (is_complex(cls.def().attribute(a).type)) continue;
        const auto& local_name = cls.local_attr(*constituent, a);
        const auto index =
            local_name ? local.find_attribute(*local_name) : std::nullopt;
        for (const Object& obj : db.extent(local.name()).objects()) {
          const Value actual = index ? obj.value(*index) : Value::null();
          if (actual.is_null()) {
            // Null (or missing) values must never be screened out against
            // any literal: Unknown is not False.
            EXPECT_EQ(index_->screen(obj.id(), cls.def().attribute(a).name,
                                     Value(0)),
                      SignatureIndex::Screen::MaybeSatisfies);
          } else {
            EXPECT_EQ(index_->screen(obj.id(), cls.def().attribute(a).name,
                                     actual),
                      SignatureIndex::Screen::MaybeSatisfies);
          }
        }
      }
    }
  }
}

TEST_F(SignatureIndexFixture, ScreensOutMostMismatches) {
  // Effectiveness: for a literal no object carries, most objects screen out
  // (false positives are possible but rare with 256 bits / 3 hashes).
  const Federation& fed = *synth_.federation;
  const ComponentDatabase& db = fed.db(DbId{1});
  std::size_t total = 0, screened = 0;
  for (const Object& obj : db.extent("C1").objects()) {
    ++total;
    if (index_->screen(obj.id(), "id", Value(999'999)) ==
        SignatureIndex::Screen::CannotSatisfy)
      ++screened;
  }
  EXPECT_GT(static_cast<double>(screened) / static_cast<double>(total), 0.9);
}

TEST_F(SignatureIndexFixture, UnindexedObjectsPass) {
  EXPECT_EQ(index_->screen(LOid{DbId{9}, 1}, "id", Value(1)),
            SignatureIndex::Screen::MaybeSatisfies);
  const DbId db = synth_.federation->db_ids().front();
  const auto past_end = static_cast<std::uint32_t>(
      synth_.federation->db(db).object_count() + 1);
  for (const std::uint32_t local : {std::uint32_t{0}, past_end, past_end + 50})
    for (const Value& literal : {Value(1), Value("x"), Value::null()})
      EXPECT_EQ(index_->screen(LOid{db, local}, "id", literal),
                SignatureIndex::Screen::MaybeSatisfies)
          << local;

  // An object of a local class that no global class integrates is never
  // indexed: it screens MaybeSatisfies, while the constituent object beside
  // it is screened out on the same mismatching literal.
  const std::unique_ptr<Federation> federation = load_catalog(
      "database 1 \"A\"\n"
      "class \"C\"\n"
      "  attr \"k\" int\n"
      "class \"X\"\n"
      "  attr \"k\" int\n"
      "object \"C\" 1\n"
      "  \"k\" = int 5\n"
      "object \"X\" 2\n"
      "  \"k\" = int 5\n"
      "end database\n"
      "global \"C\"\n"
      "  attr \"k\" int\n"
      "  constituent 1 \"C\"\n"
      "    bind \"k\" \"k\"\n"
      "entity \"C\" 1:1\n");
  const SignatureIndex index = SignatureIndex::build(*federation);
  EXPECT_EQ(index.size(), 1u) << "only constituent objects are indexed";
  EXPECT_EQ(index.screen(LOid{DbId{1}, 1}, "k", Value(6)),
            SignatureIndex::Screen::CannotSatisfy);
  EXPECT_EQ(index.screen(LOid{DbId{1}, 2}, "k", Value(6)),
            SignatureIndex::Screen::MaybeSatisfies);
}

TEST_F(SignatureIndexFixture, ScreeningIsMetered) {
  AccessMeter meter;
  (void)index_->screen(LOid{DbId{1}, 1}, "id", Value(1), &meter);
  EXPECT_EQ(meter.comparisons, 1u);
}

}  // namespace
}  // namespace isomer
