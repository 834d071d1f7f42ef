/**
 * @file
 * The loop-nest program representation: arrays, loop variables, and a
 * statement tree of loops, array references and CALL markers.
 *
 * This IR is the reproduction's stand-in for the Fortran sources the
 * paper instrumented with Sage++: workloads are written against it,
 * the locality analyzer (src/locality) computes the per-reference
 * temporal/spatial tags from it, and the trace generator
 * (src/loopnest/generator) lowers it into a flat plan and executes
 * that to emit a reference trace.
 */

#ifndef SAC_LOOPNEST_PROGRAM_HH
#define SAC_LOOPNEST_PROGRAM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/loopnest/expr.hh"
#include "src/trace/record.hh"
#include "src/util/types.hh"

namespace sac {
namespace loopnest {

/**
 * An indirect component of a subscript or loop bound: the value of a
 * one-dimensional integer array element, itself a traced load (e.g.
 * `Index(j2)` in the sparse matrix-vector product). The load carries
 * its own reference id and tags.
 */
struct IndirectPart
{
    /** The (one-dimensional) index array that is loaded. */
    ArrayId array = 0;
    /** Affine subscript of the index-array load. */
    AffineExpr index;
    /** Reference id of the load itself; set by Program::finalize(). */
    RefId ref = invalidRefId;
};

/**
 * One subscript of an array reference: an affine part plus an optional
 * indirect part whose loaded value is added to the affine part.
 */
struct Subscript
{
    AffineExpr affine;
    std::optional<IndirectPart> indirect;

    /** Purely affine subscript. */
    Subscript(AffineExpr a) : affine(std::move(a)) {} // NOLINT implicit

    /** Indirect subscript `affine + array[index]`. */
    Subscript(AffineExpr a, IndirectPart ind)
        : affine(std::move(a)), indirect(std::move(ind))
    {
    }
};

/**
 * A traced reference to an array element. Subscripts are in Fortran
 * order: subscript 0 is the contiguous (column-major leading)
 * dimension.
 */
struct ArrayRef
{
    ArrayId array = 0;
    std::vector<Subscript> subs;
    trace::AccessType type = trace::AccessType::Read;
    /** User-directive override of the temporal tag (Section 4.1). */
    std::optional<bool> userTemporal;
    /** User-directive override of the spatial tag (Section 4.1). */
    std::optional<bool> userSpatial;
    /** Reference id, assigned by Program::finalize(). */
    RefId ref = invalidRefId;
};

/**
 * A CALL marker. The paper performed no interprocedural analysis:
 * every reference inside a loop whose body contains a CALL gets both
 * tags cleared.
 */
struct CallStmt
{
};

struct Loop;
struct Conditional;

/** A statement: loop, array reference, conditional, or CALL marker. */
struct Stmt;

/** A loop bound: affine part plus optional indirect (array value) part. */
struct Bound
{
    AffineExpr affine;
    std::optional<IndirectPart> indirect;

    Bound() = default;
    Bound(std::int64_t c) : affine(c) {} // NOLINT implicit
    Bound(AffineExpr a) : affine(std::move(a)) {} // NOLINT implicit
    Bound(AffineExpr a, IndirectPart ind)
        : affine(std::move(a)), indirect(std::move(ind))
    {
    }
};

/** A DO loop over an inclusive range with a constant non-zero step. */
struct Loop
{
    VarId var = 0;
    Bound lo;
    Bound hi;
    std::int64_t step = 1;
    std::vector<Stmt> body;
};

/**
 * A data-dependent guard: the body executes on iterations where
 * `(expr mod modulus) < threshold`, a deterministic stand-in for
 * sparse control flow like molecular-dynamics cutoff tests. The
 * locality analyzer treats the body as always executing, as real
 * compilers do when tagging loop bodies.
 */
struct Conditional
{
    AffineExpr expr;
    std::int64_t modulus = 2;
    std::int64_t threshold = 1;
    std::vector<Stmt> body;
};

struct Stmt
{
    std::variant<Loop, ArrayRef, CallStmt, Conditional> node;

    Stmt(Loop l) : node(std::move(l)) {} // NOLINT implicit
    Stmt(ArrayRef r) : node(std::move(r)) {} // NOLINT implicit
    Stmt(CallStmt c) : node(c) {} // NOLINT implicit
    Stmt(Conditional c) : node(std::move(c)) {} // NOLINT implicit

    bool isLoop() const { return std::holds_alternative<Loop>(node); }
    bool isRef() const { return std::holds_alternative<ArrayRef>(node); }
    bool isCall() const { return std::holds_alternative<CallStmt>(node); }
    bool
    isConditional() const
    {
        return std::holds_alternative<Conditional>(node);
    }

    const Loop &loop() const { return std::get<Loop>(node); }
    Loop &loop() { return std::get<Loop>(node); }
    const ArrayRef &ref() const { return std::get<ArrayRef>(node); }
    ArrayRef &ref() { return std::get<ArrayRef>(node); }
    const Conditional &
    conditional() const
    {
        return std::get<Conditional>(node);
    }
    Conditional &conditional() { return std::get<Conditional>(node); }
};

/** Declaration of a (column-major) array. */
struct ArrayDecl
{
    std::string name;
    /** Extents per dimension; dims[0] is the contiguous dimension. */
    std::vector<std::int64_t> dims;
    /** Element size in bytes (8 for double-precision data). */
    unsigned elemBytes = elementBytes;
    /** Base byte address; assigned by finalize() unless set explicitly. */
    std::optional<Addr> base;
    /** Integer contents, used by indirect subscripts and bounds. */
    std::vector<std::int64_t> data;

    /** Number of elements. */
    std::int64_t elementCount() const;
    /** Footprint in bytes. */
    std::int64_t sizeBytes() const;
};

/**
 * A complete program: arrays, loop variables and top-level statements.
 * Call finalize() once after construction; it assigns base addresses
 * to arrays and dense reference ids to every ArrayRef and IndirectPart
 * in lexical order.
 */
class Program
{
  public:
    /** Create a program named @p name (the benchmark name). */
    explicit Program(std::string name) : name_(std::move(name)) {}

    /** Benchmark name. */
    const std::string &name() const { return name_; }

    /** Declare a loop variable; returns its id. */
    VarId addVar(std::string name);

    /** Declare an array; returns its id. */
    ArrayId addArray(std::string name,
                     std::vector<std::int64_t> dims,
                     unsigned elem_bytes = elementBytes);

    /** Pin array @p a at byte address @p base (conflict studies). */
    void setArrayBase(ArrayId a, Addr base);

    /** Provide integer contents for an index array. */
    void setArrayData(ArrayId a, std::vector<std::int64_t> data);

    /** Append a top-level statement. */
    void addStmt(Stmt s) { top_.push_back(std::move(s)); }

    /** Number of declared loop variables. */
    std::size_t varCount() const { return vars_.size(); }

    /** Name of loop variable @p v. */
    const std::string &varName(VarId v) const { return vars_[v]; }

    /** Array declaration for @p a. */
    const ArrayDecl &array(ArrayId a) const { return arrays_[a]; }

    /** Number of declared arrays. */
    std::size_t arrayCount() const { return arrays_.size(); }

    /** Top-level statements. */
    const std::vector<Stmt> &statements() const { return top_; }

    /** Mutable top-level statements (builder use only). */
    std::vector<Stmt> &statements() { return top_; }

    /**
     * Assign array base addresses (packed, line-aligned, starting at
     * baseAddress) and dense reference ids in lexical order. Must be
     * called exactly once before analysis or execution.
     */
    void finalize();

    /** True once finalize() has run. */
    bool finalized() const { return finalized_; }

    /** Number of static references (valid after finalize()). */
    std::size_t refCount() const { return ref_count_; }

    /** First byte address used for automatically placed arrays. */
    static constexpr Addr baseAddress = 0x10000;

    /** Alignment of automatically placed arrays (one physical line). */
    static constexpr Addr arrayAlignment = 32;

  private:
    std::string name_;
    std::vector<std::string> vars_;
    std::vector<ArrayDecl> arrays_;
    std::vector<Stmt> top_;
    bool finalized_ = false;
    std::size_t ref_count_ = 0;
};

} // namespace loopnest
} // namespace sac

#endif // SAC_LOOPNEST_PROGRAM_HH
