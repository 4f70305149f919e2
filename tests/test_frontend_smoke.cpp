/// Cross-backend smoke tests of the frontend: every operation is invoked on
/// both backends through the typed-test mechanism, asserting identical
/// results. Deeper per-operation semantics live in the dedicated test files.

#include <gtest/gtest.h>

#include "gbtl/gbtl.hpp"

namespace {

using grb::IndexArrayType;
using grb::NoAccumulate;
using grb::NoMask;

// Service results, logs and benches name backends by these strings.
TEST(BackendName, PinsEveryTag) {
  EXPECT_STREQ(grb::backend_name<grb::Sequential>(), "sequential");
  EXPECT_STREQ(grb::backend_name<grb::CpuPar>(), "cpupar");
  EXPECT_STREQ(grb::backend_name<grb::GpuSim>(), "gpusim");
  EXPECT_STREQ(grb::backend_name<grb::GpuShard>(), "gpushard");
}

template <typename Tag>
struct FrontendSmoke : public ::testing::Test {};

using Backends = ::testing::Types<grb::Sequential, grb::GpuSim>;
TYPED_TEST_SUITE(FrontendSmoke, Backends);

template <typename Tag>
grb::Matrix<double, Tag> small_graph() {
  // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 -> 2
  grb::Matrix<double, Tag> a(4, 4);
  a.build({0, 0, 1, 2, 3}, {1, 2, 2, 0, 2}, {1, 2, 3, 4, 5});
  return a;
}

TYPED_TEST(FrontendSmoke, BuildAndAccessors) {
  auto a = small_graph<TypeParam>();
  EXPECT_EQ(a.nrows(), 4u);
  EXPECT_EQ(a.ncols(), 4u);
  EXPECT_EQ(a.nvals(), 5u);
  EXPECT_TRUE(a.hasElement(0, 1));
  EXPECT_FALSE(a.hasElement(1, 0));
  EXPECT_DOUBLE_EQ(a.extractElement(3, 2), 5.0);
  EXPECT_THROW(a.extractElement(1, 0), grb::NoValueException);
  EXPECT_THROW(a.extractElement(4, 0), grb::IndexOutOfBoundsException);
}

TYPED_TEST(FrontendSmoke, MxvArithmetic) {
  auto a = small_graph<TypeParam>();
  grb::Vector<double, TypeParam> u(std::vector<double>{1, 1, 1, 1}, 0.0);
  grb::Vector<double, TypeParam> w(4);
  grb::mxv(w, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{}, a,
           u);
  EXPECT_DOUBLE_EQ(w.extractElement(0), 3.0);
  EXPECT_DOUBLE_EQ(w.extractElement(1), 3.0);
  EXPECT_DOUBLE_EQ(w.extractElement(2), 4.0);
  EXPECT_DOUBLE_EQ(w.extractElement(3), 5.0);
}

TYPED_TEST(FrontendSmoke, MxmMatchesHandComputed) {
  auto a = small_graph<TypeParam>();
  grb::Matrix<double, TypeParam> c(4, 4);
  grb::mxm(c, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{}, a,
           a);
  // A^2: row0: 0->1->2 (1*3=3), 0->2->0 (2*4=8)
  EXPECT_DOUBLE_EQ(c.extractElement(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(c.extractElement(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(c.extractElement(1, 0), 12.0);  // 1->2->0
  EXPECT_DOUBLE_EQ(c.extractElement(2, 1), 4.0);   // 2->0->1
  EXPECT_DOUBLE_EQ(c.extractElement(2, 2), 8.0);   // 2->0->2
  EXPECT_DOUBLE_EQ(c.extractElement(3, 0), 20.0);  // 3->2->0
  EXPECT_EQ(c.nvals(), 6u);
}

TYPED_TEST(FrontendSmoke, VxmWithTransposeEqualsMxv) {
  auto a = small_graph<TypeParam>();
  grb::Vector<double, TypeParam> u(std::vector<double>{1, 0, 2, 0}, 0.0);
  grb::Vector<double, TypeParam> w1(4), w2(4);
  grb::mxv(w1, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{}, a,
           u);
  grb::vxm(w2, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{}, u,
           grb::transpose(a));
  EXPECT_EQ(w1, w2);
}

TYPED_TEST(FrontendSmoke, EwiseAddAndMult) {
  grb::Matrix<double, TypeParam> a({{1, 0}, {2, 3}}, 0.0);
  grb::Matrix<double, TypeParam> b({{5, 6}, {0, 7}}, 0.0);
  grb::Matrix<double, TypeParam> sum(2, 2), prod(2, 2);
  grb::eWiseAdd(sum, NoMask{}, NoAccumulate{}, grb::Plus<double>{}, a, b);
  grb::eWiseMult(prod, NoMask{}, NoAccumulate{}, grb::Times<double>{}, a, b);
  EXPECT_DOUBLE_EQ(sum.extractElement(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(sum.extractElement(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(sum.extractElement(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(sum.extractElement(1, 1), 10.0);
  EXPECT_EQ(prod.nvals(), 2u);
  EXPECT_DOUBLE_EQ(prod.extractElement(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(prod.extractElement(1, 1), 21.0);
}

TYPED_TEST(FrontendSmoke, ApplyReduceTranspose) {
  auto a = small_graph<TypeParam>();
  grb::Matrix<double, TypeParam> doubled(4, 4);
  grb::apply(doubled, NoMask{}, NoAccumulate{},
             grb::BindSecond<double, grb::Times<double>>{2.0}, a);
  EXPECT_DOUBLE_EQ(doubled.extractElement(3, 2), 10.0);

  grb::Vector<double, TypeParam> row_sums(4);
  grb::reduce(row_sums, NoMask{}, NoAccumulate{}, grb::PlusMonoid<double>{},
              a);
  EXPECT_DOUBLE_EQ(row_sums.extractElement(0), 3.0);
  EXPECT_FALSE(row_sums.hasElement(1) && false);

  double total = 0;
  grb::reduce(total, NoAccumulate{}, grb::PlusMonoid<double>{}, a);
  EXPECT_DOUBLE_EQ(total, 15.0);

  grb::Matrix<double, TypeParam> at(4, 4);
  grb::transpose(at, NoMask{}, NoAccumulate{}, a);
  EXPECT_DOUBLE_EQ(at.extractElement(2, 3), 5.0);
  EXPECT_EQ(at.nvals(), 5u);
}

TYPED_TEST(FrontendSmoke, MaskedMxvWithComplementAndReplace) {
  auto a = small_graph<TypeParam>();
  grb::Vector<double, TypeParam> u(std::vector<double>{1, 1, 1, 1}, 0.0);
  grb::Vector<bool, TypeParam> visited(4);
  visited.setElement(0, true);
  grb::Vector<double, TypeParam> w(4);
  w.setElement(0, 99.0);
  w.setElement(3, 42.0);
  // Only unvisited positions get results; Replace wipes the rest.
  grb::mxv(w, grb::complement(visited), NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
  EXPECT_FALSE(w.hasElement(0));  // masked out and replaced
  EXPECT_DOUBLE_EQ(w.extractElement(1), 3.0);
  EXPECT_DOUBLE_EQ(w.extractElement(3), 5.0);
}

TYPED_TEST(FrontendSmoke, ExtractAssignRoundTrip) {
  auto a = small_graph<TypeParam>();
  grb::Matrix<double, TypeParam> sub(2, 2);
  grb::extract(sub, NoMask{}, NoAccumulate{}, a, {0, 3}, {1, 2});
  EXPECT_DOUBLE_EQ(sub.extractElement(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(sub.extractElement(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(sub.extractElement(1, 1), 5.0);
  EXPECT_EQ(sub.nvals(), 3u);

  grb::Matrix<double, TypeParam> c(4, 4);
  grb::assign(c, NoMask{}, NoAccumulate{}, sub, {1, 2}, {0, 3});
  EXPECT_DOUBLE_EQ(c.extractElement(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.extractElement(1, 3), 2.0);
  EXPECT_DOUBLE_EQ(c.extractElement(2, 3), 5.0);
}

TYPED_TEST(FrontendSmoke, KroneckerAndSelect) {
  grb::Matrix<double, TypeParam> a({{1, 2}, {0, 3}}, 0.0);
  grb::Matrix<double, TypeParam> k(4, 4);
  grb::kronecker(k, NoMask{}, NoAccumulate{}, grb::Times<double>{}, a, a);
  EXPECT_DOUBLE_EQ(k.extractElement(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(k.extractElement(0, 3), 4.0);
  EXPECT_DOUBLE_EQ(k.extractElement(3, 3), 9.0);
  EXPECT_EQ(k.nvals(), 9u);

  grb::Matrix<double, TypeParam> upper(4, 4);
  grb::select(upper, NoMask{}, NoAccumulate{},
              [](grb::IndexType i, grb::IndexType j, double) { return j > i; },
              k);
  EXPECT_TRUE(upper.hasElement(0, 3));
  EXPECT_FALSE(upper.hasElement(3, 3));
}

TYPED_TEST(FrontendSmoke, DimensionChecksThrow) {
  grb::Matrix<double, TypeParam> a(3, 4), b(3, 4), c(3, 3);
  grb::Vector<double, TypeParam> u(3), w(4);
  EXPECT_THROW(grb::mxm(c, NoMask{}, NoAccumulate{},
                        grb::ArithmeticSemiring<double>{}, a, b),
               grb::DimensionException);
  EXPECT_THROW(grb::mxv(w, NoMask{}, NoAccumulate{},
                        grb::ArithmeticSemiring<double>{}, a, w),
               grb::DimensionException);
  EXPECT_THROW(grb::eWiseAdd(u, NoMask{}, NoAccumulate{}, grb::Plus<double>{},
                             u, w),
               grb::DimensionException);
}

}  // namespace
