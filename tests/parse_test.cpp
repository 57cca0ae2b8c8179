#include "ir/interp.h"
#include "ir/parse.h"
#include "ir/print.h"
#include "ir/simplify.h"
#include "kernels/kernel.h"
#include "kernels/native.h"
#include "support/check.h"

#include <gtest/gtest.h>

namespace motune::ir {
namespace {

// --- parser -----------------------------------------------------------------

TEST(Parse, MinimalProgram) {
  const Program p = parseProgram("array A[4]\n"
                                 "for i = 0 .. 4 { A[i] = 1.5; }");
  ASSERT_EQ(p.arrays.size(), 1u);
  EXPECT_EQ(p.arrays[0].dims, (std::vector<std::int64_t>{4}));
  const Loop& loop = p.rootLoop();
  EXPECT_EQ(loop.iv, "i");
  Env env;
  EXPECT_EQ(loop.upper.eval(env), 4);
}

TEST(Parse, ParsedMmMatchesBuiltinSemantics) {
  const std::int64_t n = 8;
  const std::string src = R"(
    # matrix multiplication, IJK
    array A[8][8]
    array B[8][8]
    array C[8][8]
    for i = 0 .. 8 {
      for j = 0 .. 8 {
        for k = 0 .. 8 {
          C[i][j] += A[i][k] * B[k][j];
        }
      }
    }
  )";
  Interpreter parsed(parseProgram(src));
  Interpreter builtin(kernels::buildMM(n));
  std::vector<double> a(n * n), b(n * n);
  kernels::fillDeterministic(a, 1);
  kernels::fillDeterministic(b, 2);
  parsed.array("A") = a;
  parsed.array("B") = b;
  builtin.array("A") = a;
  builtin.array("B") = b;
  parsed.run();
  builtin.run();
  EXPECT_EQ(parsed.array("C"), builtin.array("C"));
}

TEST(Parse, StencilWithNegativeOffsetsAndScaling) {
  const std::string src = R"(
    array A[16][16]
    array B[16][16]
    for i = 1 .. 15 {
      for j = 1 .. 15 {
        B[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j]
                         + A[i][j-1] + A[i][j+1]);
      }
    }
  )";
  Interpreter parsed(parseProgram(src));
  Interpreter builtin(kernels::buildJacobi2d(16));
  std::vector<double> a(16 * 16);
  kernels::fillDeterministic(a, 5);
  parsed.array("A") = a;
  builtin.array("A") = a;
  parsed.run();
  builtin.run();
  EXPECT_EQ(parsed.array("B"), builtin.array("B"));
}

TEST(Parse, FunctionsAndUnaryMinus) {
  const Program p = parseProgram(R"(
    array X[4]
    array Y[4]
    for i = 0 .. 4 {
      Y[i] = sqrt(abs(-X[i])) + min(X[i], 2.0) - max(X[i], -1.0);
    }
  )");
  Interpreter interp(p);
  interp.array("X") = {4.0, -9.0, 0.25, 1.0};
  interp.run();
  const auto& y = interp.array("Y");
  EXPECT_DOUBLE_EQ(y[0], 2.0 + 2.0 - 4.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0 + (-9.0) - (-1.0));
}

TEST(Parse, AffineBoundsAndSubscripts) {
  // Triangular-ish bound referencing the outer iv, and 2*i subscripts.
  const Program p = parseProgram(R"(
    array A[8][16]
    for i = 0 .. 8 {
      for j = i .. 8 {
        A[i][2*j - i] = 1.0;
      }
    }
  )");
  Interpreter interp(p);
  interp.run();
  // Element (0, 0) set (i=0, j=0); element (1, 1) set (i=1, j=1).
  EXPECT_DOUBLE_EQ(interp.array("A")[0], 1.0);
  EXPECT_DOUBLE_EQ(interp.array("A")[16 + 1], 1.0);
}

TEST(Parse, RoundTripThroughPrinter) {
  // Parsed program, printed, reparsed: identical semantics.
  const std::string src = R"(
    array A[6][6]
    array B[6][6]
    for i = 1 .. 5 {
      for j = 1 .. 5 {
        B[i][j] = A[i][j] * 2.0 + A[i-1][j-1];
      }
    }
  )";
  const Program p = parseProgram(src);
  const std::string printed = toC(p, /*emitPragmas=*/false);
  EXPECT_NE(printed.find("for (long i = 1; i < 5; i += 1)"),
            std::string::npos);
}

TEST(Parse, PrintSourceRoundTripsBuiltinKernels) {
  // printSource must be an exact inverse of parseProgram on every built-in
  // kernel IR — the fuzzer's repro files depend on this identity.
  for (const auto& spec : kernels::allKernels()) {
    const Program p = spec.buildIR(spec.testN);
    const std::string source = printSource(p);
    Program reparsed;
    ASSERT_NO_THROW(reparsed = parseProgram(source))
        << spec.name << ":\n" << source;
    EXPECT_TRUE(structurallyEqual(p, reparsed))
        << spec.name << ":\n" << source;
  }
}

TEST(Parse, PrintSourceRoundTripsAwkwardConstants) {
  // Constants that are not exactly representable need all 17 digits; the
  // sign must fold back into the literal, not a unary negation node.
  const Program p = parseProgram(
      "array A[2]\n"
      "for i = 0 .. 2 { A[i] = (0.1 + -1.8444801241839572) * 3.0; }");
  const Program reparsed = parseProgram(printSource(p));
  EXPECT_TRUE(structurallyEqual(p, reparsed)) << printSource(p);
}

TEST(Parse, PrintSourceRejectsTransformedPrograms) {
  Program p = parseProgram("array A[4]\nfor i = 0 .. 4 { A[i] = 1.0; }");
  p.rootLoop().parallel = true; // not representable in the source language
  EXPECT_THROW(printSource(p), support::CheckError);
}

struct BadSource {
  const char* label;
  const char* src;
};

// Names each case by its label (the default printer shows the pointers).
void PrintTo(const BadSource& source, std::ostream* os) {
  *os << source.label;
}

class ParseErrors : public ::testing::TestWithParam<BadSource> {};

TEST_P(ParseErrors, Rejected) {
  EXPECT_THROW(parseProgram(GetParam().src), support::CheckError)
      << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ParseErrors,
    ::testing::Values(
        BadSource{"empty", ""},
        BadSource{"no loops", "array A[4]"},
        BadSource{"unknown array", "array A[4]\nfor i = 0 .. 4 { B[i] = 1; }"},
        BadSource{"rank mismatch",
                  "array A[4][4]\nfor i = 0 .. 4 { A[i] = 1; }"},
        BadSource{"non-affine subscript",
                  "array A[4]\nfor i = 0 .. 4 { A[i*i] = 1; }"},
        BadSource{"duplicate iv",
                  "array A[4]\nfor i = 0 .. 4 { for i = 0 .. 4 { A[i] = 1; } }"},
        BadSource{"missing semicolon",
                  "array A[4]\nfor i = 0 .. 4 { A[i] = 1 }"},
        BadSource{"unclosed brace", "array A[4]\nfor i = 0 .. 4 { A[i] = 1;"},
        BadSource{"duplicate array",
                  "array A[4]\narray A[4]\nfor i = 0 .. 4 { A[i] = 1; }"},
        BadSource{"unknown identifier",
                  "array A[4]\nfor i = 0 .. 4 { A[i] = q + 1; }"},
        BadSource{"fractional dimension",
                  "array A[4.5]\nfor i = 0 .. 4 { A[i] = 1; }"},
        BadSource{"empty body", "array A[4]\nfor i = 0 .. 4 { }"}));

TEST(Parse, ErrorsCarryLocation) {
  try {
    parseProgram("array A[4]\nfor i = 0 .. 4 { A[i] = ; }");
    FAIL() << "should have thrown";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// --- simplifier --------------------------------------------------------------

double evalConst(const ExprPtr& e) {
  MOTUNE_CHECK(e->kind == Expr::Kind::Const);
  return e->constant;
}

TEST(Simplify, ConstantFolding) {
  const ExprPtr e = (constant(2.0) + constant(3.0)) * constant(4.0);
  EXPECT_DOUBLE_EQ(evalConst(simplify(e)), 20.0);
  EXPECT_DOUBLE_EQ(evalConst(simplify(sqrtOf(constant(16.0)))), 4.0);
  EXPECT_DOUBLE_EQ(
      evalConst(simplify(binary(BinOp::Min, constant(2.0), constant(-1.0)))),
      -1.0);
}

TEST(Simplify, Identities) {
  const ExprPtr x = read("A", {AffineExpr::var("i")});
  EXPECT_EQ(simplify(x + constant(0.0)), x);
  EXPECT_EQ(simplify(constant(0.0) + x), x);
  EXPECT_EQ(simplify(x * constant(1.0)), x);
  EXPECT_EQ(simplify(x / constant(1.0)), x);
  EXPECT_DOUBLE_EQ(evalConst(simplify(x * constant(0.0))), 0.0);
  EXPECT_EQ(simplify(unary(UnOp::Neg, unary(UnOp::Neg, x))), x);
}

TEST(Simplify, PreservesSemanticsOnKernel) {
  // Wrap a kernel rhs in identity noise; simplification must restore the
  // exact numeric behavior.
  Program noisy = parseProgram(R"(
    array A[8][8]
    array B[8][8]
    for i = 1 .. 7 {
      for j = 1 .. 7 {
        B[i][j] = (A[i][j] * 1.0 + 0.0) * (2.0 + 3.0) / 1.0;
      }
    }
  )");
  Program clean = parseProgram(R"(
    array A[8][8]
    array B[8][8]
    for i = 1 .. 7 {
      for j = 1 .. 7 {
        B[i][j] = A[i][j] * 5.0;
      }
    }
  )");
  simplify(noisy);
  Interpreter a(noisy), b(clean);
  std::vector<double> data(64);
  kernels::fillDeterministic(data, 9);
  a.array("A") = data;
  b.array("A") = data;
  a.run();
  b.run();
  EXPECT_EQ(a.array("B"), b.array("B"));
}

TEST(Simplify, NoUnsafeFloatRules) {
  // x - x and x / x must NOT fold (NaN/Inf semantics).
  const ExprPtr x = read("A", {AffineExpr::var("i")});
  EXPECT_NE(simplify(x - x)->kind, Expr::Kind::Const);
  EXPECT_NE(simplify(x / x)->kind, Expr::Kind::Const);
  // sqrt of a negative constant must not fold either.
  EXPECT_NE(simplify(sqrtOf(constant(-1.0)))->kind, Expr::Kind::Const);
}

} // namespace
} // namespace motune::ir
