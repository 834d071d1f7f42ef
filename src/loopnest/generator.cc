#include "src/loopnest/generator.hh"

#include <algorithm>
#include <type_traits>

#include "src/util/logging.hh"

namespace sac {
namespace loopnest {

/**
 * A program lowered into flat ops. Statements become ops in preorder;
 * a Loop or Guard op owns the ops up to its `end`. Every affine form
 * is a constant plus a slice of the shared term pool, so evaluating
 * one touches no heap.
 *
 * A *leaf* loop is one whose body holds only references with affine
 * subscripts (and CALL markers). Each of its references gets a slot
 * holding its byte address as one form and its byte stride per
 * iterate; the loop runs strength-reduced, with the subscripts
 * checked once per entry at the first and last iterate. Every other
 * reference (in a non-leaf loop, under a Guard, at top level, or with
 * an indirect part) is evaluated and checked on every record.
 */
struct TraceGenerator::Plan
{
    /** constant + sum(coeff * env[var]) over terms[first, last). */
    struct Form
    {
        std::int64_t constant = 0;
        std::uint32_t first = 0;
        std::uint32_t last = 0;
    };

    /** A traced index-array load whose value feeds a subscript or bound. */
    struct Load
    {
        const ArrayDecl *array = nullptr;
        Form index;
        trace::Record record;
    };

    /** A loop bound: affine part plus an optional load (-1: none). */
    struct Bound
    {
        Form affine;
        std::int32_t load = -1;
    };

    /** One subscript of a reference, in dimension order. */
    struct Dim
    {
        Form affine;
        std::int32_t load = -1;
        /** Coefficient of the leaf loop's variable (leaf refs only). */
        std::int64_t loopCoeff = 0;
    };

    struct Ref
    {
        const ArrayDecl *array = nullptr;
        /** ref, size, type and tags; addr and delta vary per record. */
        trace::Record record;
        std::uint32_t dimFirst = 0;
        std::uint32_t dimLast = 0;
    };

    /** A reference of a leaf loop. */
    struct Slot
    {
        trace::Record record;
        /** Byte address as a form (base and strides folded in). */
        Form addr;
        /** Byte stride per iterate of the leaf loop. */
        std::int64_t stride = 0;
        std::uint32_t ref = 0;
    };

    struct Loop
    {
        VarId var = 0;
        Bound lo;
        Bound hi;
        std::int64_t step = 1;
        /** A leaf: the body is exactly these slots' references. */
        bool leaf = false;
        std::uint32_t slotFirst = 0;
        std::uint32_t slotLast = 0;
    };

    struct Guard
    {
        Form expr;
        std::int64_t modulus = 1;
        std::int64_t threshold = 0;
    };

    enum class Kind : std::uint8_t { Loop, Guard, Ref };

    struct Op
    {
        Kind kind = Kind::Ref;
        /** Index into loops, guards or refs. */
        std::uint32_t index = 0;
        /** One past the last op of this op's body (self + 1 for Ref). */
        std::uint32_t end = 0;
    };

    std::vector<Op> ops;
    std::vector<Loop> loops;
    std::vector<Guard> guards;
    std::vector<Ref> refs;
    std::vector<Dim> dims;
    std::vector<Load> loads;
    std::vector<Slot> slots;
    std::vector<AffineExpr::Term> terms;
    std::size_t varCount = 0;
    std::size_t maxRank = 0;
};

namespace {

using Plan = TraceGenerator::Plan;

/** Lowers a finalized program into its Plan. */
class Lowering
{
  public:
    Lowering(const Program &program, const TagVector &tags)
        : program_(program), tags_(tags)
    {
        plan_.varCount = program.varCount();
        block(program.statements(), nullptr);
    }

    Plan take() { return std::move(plan_); }

  private:
    static bool
    affineOnly(const ArrayRef &r)
    {
        return std::none_of(r.subs.begin(), r.subs.end(),
                            [](const Subscript &s) {
                                return s.indirect.has_value();
                            });
    }

    /** Lower @p stmts; @p leaf is the leaf loop whose body they are. */
    void
    block(const std::vector<Stmt> &stmts, const Loop *leaf)
    {
        for (const Stmt &s : stmts) {
            if (s.isLoop())
                loop(s.loop());
            else if (s.isRef())
                ref(s.ref(), leaf);
            else if (s.isConditional())
                guard(s.conditional());
            // CALL markers only affect analysis; they lower to nothing.
        }
    }

    void
    loop(const Loop &l)
    {
        SAC_ASSERT(l.step != 0, "loop step must be non-zero");
        Plan::Loop pl;
        pl.var = l.var;
        pl.lo = bound(l.lo);
        pl.hi = bound(l.hi);
        pl.step = l.step;
        pl.leaf = std::all_of(l.body.begin(), l.body.end(),
                              [](const Stmt &s) {
                                  return s.isCall() ||
                                         (s.isRef() && affineOnly(s.ref()));
                              });
        pl.slotFirst = static_cast<std::uint32_t>(plan_.slots.size());
        const auto index = static_cast<std::uint32_t>(plan_.loops.size());
        plan_.loops.push_back(pl);
        const std::size_t at = open(Plan::Kind::Loop, index);
        block(l.body, pl.leaf ? &l : nullptr);
        close(at);
        plan_.loops[index].slotLast =
            static_cast<std::uint32_t>(plan_.slots.size());
    }

    void
    guard(const Conditional &c)
    {
        SAC_ASSERT(c.modulus > 0, "conditional modulus must be > 0");
        const auto index = static_cast<std::uint32_t>(plan_.guards.size());
        plan_.guards.push_back({form(c.expr), c.modulus, c.threshold});
        const std::size_t at = open(Plan::Kind::Guard, index);
        block(c.body, nullptr);
        close(at);
    }

    void
    ref(const ArrayRef &r, const Loop *leaf)
    {
        const ArrayDecl &a = program_.array(r.array);
        SAC_ASSERT(r.subs.size() == a.dims.size(),
                   "subscript count does not match array rank of ", a.name);
        Plan::Ref pr;
        pr.array = &a;
        pr.record = record(r.ref, r.type);
        pr.dimFirst = static_cast<std::uint32_t>(plan_.dims.size());
        // The byte address as one form: base + elemBytes * sum over
        // dims of subscript * (product of the lower extents).
        AffineExpr addr(static_cast<std::int64_t>(*a.base));
        std::int64_t stride = a.elemBytes;
        for (std::size_t d = 0; d < r.subs.size(); ++d) {
            const Subscript &sub = r.subs[d];
            Plan::Dim dim;
            dim.affine = form(sub.affine);
            if (sub.indirect)
                dim.load = load(*sub.indirect);
            if (leaf)
                dim.loopCoeff = sub.affine.coeffOf(leaf->var);
            plan_.dims.push_back(dim);
            addr += sub.affine.scaled(stride);
            stride *= a.dims[d];
        }
        pr.dimLast = static_cast<std::uint32_t>(plan_.dims.size());
        plan_.maxRank = std::max(plan_.maxRank, r.subs.size());
        const auto index = static_cast<std::uint32_t>(plan_.refs.size());
        plan_.refs.push_back(pr);
        close(open(Plan::Kind::Ref, index));
        if (leaf) {
            plan_.slots.push_back({pr.record, form(addr),
                                   addr.coeffOf(leaf->var) * leaf->step,
                                   index});
        }
    }

    Plan::Bound
    bound(const Bound &b)
    {
        Plan::Bound pb;
        pb.affine = form(b.affine);
        if (b.indirect)
            pb.load = load(*b.indirect);
        return pb;
    }

    std::int32_t
    load(const IndirectPart &p)
    {
        const ArrayDecl &a = program_.array(p.array);
        SAC_ASSERT(a.dims.size() == 1,
                   "indirect index arrays must be one-dimensional: ",
                   a.name);
        SAC_ASSERT(!a.data.empty(), "index array has no contents: ",
                   a.name);
        plan_.loads.push_back(
            {&a, form(p.index), record(p.ref, trace::AccessType::Read)});
        return static_cast<std::int32_t>(plan_.loads.size() - 1);
    }

    Plan::Form
    form(const AffineExpr &e)
    {
        Plan::Form f;
        f.constant = e.constant();
        f.first = static_cast<std::uint32_t>(plan_.terms.size());
        for (const auto &t : e.terms()) {
            SAC_ASSERT(t.var < plan_.varCount,
                       "loop variable without a value in eval()");
            plan_.terms.push_back(t);
        }
        f.last = static_cast<std::uint32_t>(plan_.terms.size());
        return f;
    }

    trace::Record
    record(RefId id, trace::AccessType type) const
    {
        SAC_ASSERT(id != invalidRefId,
                   "executing a reference with no id; was finalize() run?");
        trace::Record r;
        r.ref = id;
        r.size = elementBytes;
        r.type = type;
        r.temporal = tags_[id].temporal;
        r.spatial = tags_[id].spatial;
        r.spatialLevel = tags_[id].spatialLevel;
        return r;
    }

    std::size_t
    open(Plan::Kind kind, std::uint32_t index)
    {
        plan_.ops.push_back({kind, index, 0});
        return plan_.ops.size() - 1;
    }

    void
    close(std::size_t at)
    {
        plan_.ops[at].end = static_cast<std::uint32_t>(plan_.ops.size());
    }

    const Program &program_;
    const TagVector &tags_;
    Plan plan_;
};

/** Appends records to a materialized trace. */
struct TraceOut
{
    trace::Trace &trace;
    void put(const trace::Record &r) { trace.push(r); }
};

/** Hands records to a streaming sink. */
struct SinkOut
{
    const trace::RecordSink &sink;
    void put(const trace::Record &r) { sink(r); }
};

/**
 * Only counts records, so a materialized trace is sized once before
 * its real run: no draws, no subscript checks, and the count is
 * abandoned past the record cap or at an out-of-range index load
 * (the real run then panics at the exact record).
 */
struct CountOut
{
    void put(const trace::Record &) {}
};

/** Runs a Plan once, emitting into @p Out. */
template <class Out>
class Executor
{
    static constexpr bool counting = std::is_same_v<Out, CountOut>;

  public:
    Executor(const Plan &plan, trace::TimingModel &timing, Out out,
             std::uint64_t max_records)
        : plan_(plan), timing_(timing), out_(out),
          maxRecords_(max_records), env_(plan.varCount, 0),
          cursor_(plan.slots.size(), 0), subs_(plan.maxRank, 0)
    {
    }

    void
    run()
    {
        block(0, static_cast<std::uint32_t>(plan_.ops.size()));
    }

    /** Records emitted (or counted) so far. */
    std::uint64_t emitted() const { return emitted_; }

    /** A counting run stopped early; emitted() is not the total. */
    bool abandoned() const { return abandoned_; }

  private:
    void
    block(std::uint32_t begin, std::uint32_t end)
    {
        for (std::uint32_t i = begin; i < end;) {
            if constexpr (counting) {
                if (abandoned_)
                    return;
            }
            const Plan::Op &op = plan_.ops[i];
            switch (op.kind) {
            case Plan::Kind::Loop:
                loop(plan_.loops[op.index], i + 1, op.end);
                break;
            case Plan::Kind::Guard:
                if (guard(plan_.guards[op.index]))
                    block(i + 1, op.end);
                break;
            case Plan::Kind::Ref:
                ref(plan_.refs[op.index]);
                break;
            }
            i = op.end;
        }
    }

    void
    loop(const Plan::Loop &l, std::uint32_t body, std::uint32_t end)
    {
        const std::int64_t lo = bound(l.lo);
        const std::int64_t hi = bound(l.hi);
        const std::int64_t span = l.step > 0 ? hi - lo : lo - hi;
        if (span < 0)
            return;
        const std::int64_t trips = span / (l.step > 0 ? l.step : -l.step) + 1;

        const std::int64_t saved = env_[l.var];
        env_[l.var] = lo;
        // A leaf whose hoisted check fails runs with per-record checks
        // instead, so the panic names the first bad record exactly.
        if (!l.leaf || !leaf(l, trips)) {
            std::int64_t i = lo;
            for (std::int64_t n = 0; n < trips && !(counting && abandoned_);
                 ++n, i += l.step) {
                env_[l.var] = i;
                block(body, end);
            }
        }
        env_[l.var] = saved;
    }

    /**
     * Run leaf loop @p l (its variable at its first iterate in env_)
     * strength-reduced. Returns false, having emitted nothing, when a
     * subscript is out of bounds at the first or the last iterate:
     * an affine subscript is monotone in the loop variable, so both
     * in bounds means every iterate is.
     */
    bool
    leaf(const Plan::Loop &l, std::int64_t trips)
    {
        const std::uint32_t n = l.slotLast - l.slotFirst;
        if constexpr (counting) {
            if (n != 0 && static_cast<std::uint64_t>(trips) >
                              (maxRecords_ - emitted_) / n)
                abandoned_ = true;
            else
                emitted_ += static_cast<std::uint64_t>(trips) * n;
            return true;
        }
        const Plan::Slot *slots = plan_.slots.data() + l.slotFirst;
        Addr *cursor = cursor_.data() + l.slotFirst;
        const std::int64_t distance = (trips - 1) * l.step;
        for (std::uint32_t k = 0; k < n; ++k) {
            const Plan::Ref &r = plan_.refs[slots[k].ref];
            for (std::uint32_t d = r.dimFirst; d < r.dimLast; ++d) {
                const Plan::Dim &dim = plan_.dims[d];
                const std::int64_t extent = r.array->dims[d - r.dimFirst];
                const std::int64_t first = eval(dim.affine);
                const std::int64_t last = first + dim.loopCoeff * distance;
                if (first < 0 || first >= extent || last < 0 ||
                    last >= extent)
                    return false;
            }
            cursor[k] = static_cast<Addr>(eval(slots[k].addr));
        }
        for (std::int64_t t = 0; t < trips; ++t) {
            for (std::uint32_t k = 0; k < n; ++k) {
                emit(slots[k].record, cursor[k]);
                cursor[k] += static_cast<Addr>(slots[k].stride);
            }
        }
        return true;
    }

    void
    ref(const Plan::Ref &r)
    {
        if constexpr (counting) {
            for (std::uint32_t d = r.dimFirst; d < r.dimLast; ++d) {
                if (plan_.dims[d].load >= 0)
                    load(plan_.loads[plan_.dims[d].load]);
            }
            emit(r.record, 0);
            return;
        }
        // Index loads are traced in subscript order, before the
        // reference that uses them; the rank checks follow them.
        const std::uint32_t rank = r.dimLast - r.dimFirst;
        for (std::uint32_t d = 0; d < rank; ++d) {
            const Plan::Dim &dim = plan_.dims[r.dimFirst + d];
            subs_[d] = eval(dim.affine) +
                       (dim.load >= 0 ? load(plan_.loads[dim.load]) : 0);
        }
        const ArrayDecl &a = *r.array;
        std::int64_t linear = 0;
        std::int64_t stride = 1;
        for (std::uint32_t d = 0; d < rank; ++d) {
            SAC_ASSERT(subs_[d] >= 0 && subs_[d] < a.dims[d],
                       "subscript out of bounds in ", a.name, " dim ", d,
                       ": ", subs_[d], " not in [0, ", a.dims[d], ")");
            linear += subs_[d] * stride;
            stride *= a.dims[d];
        }
        emit(r.record, *a.base + static_cast<Addr>(linear) * a.elemBytes);
    }

    bool
    guard(const Plan::Guard &g) const
    {
        const std::int64_t value = eval(g.expr);
        const std::int64_t residue =
            ((value % g.modulus) + g.modulus) % g.modulus;
        return residue < g.threshold;
    }

    std::int64_t
    bound(const Plan::Bound &b)
    {
        return eval(b.affine) +
               (b.load >= 0 ? load(plan_.loads[b.load]) : 0);
    }

    /** Trace an index-array load and return the loaded value. */
    std::int64_t
    load(const Plan::Load &p)
    {
        const ArrayDecl &a = *p.array;
        const std::int64_t i = eval(p.index);
        if constexpr (counting) {
            if (i < 0 || i >= a.elementCount()) {
                abandoned_ = true;
                return 0;
            }
        }
        SAC_ASSERT(i >= 0 && i < a.elementCount(),
                   "index-array subscript out of bounds in ", a.name,
                   ": ", i);
        emit(p.record, *a.base + static_cast<Addr>(i) * a.elemBytes);
        return a.data[static_cast<std::size_t>(i)];
    }

    std::int64_t
    eval(const Plan::Form &f) const
    {
        std::int64_t v = f.constant;
        for (std::uint32_t t = f.first; t < f.last; ++t)
            v += plan_.terms[t].coeff * env_[plan_.terms[t].var];
        return v;
    }

    /** One record: the cap check, then exactly one delta draw. */
    void
    emit(const trace::Record &tmpl, Addr addr)
    {
        if constexpr (counting) {
            if (emitted_ == maxRecords_)
                abandoned_ = true;
            else
                ++emitted_;
            return;
        }
        SAC_ASSERT(emitted_ < maxRecords_,
                   "trace exceeds the record cap; runaway loop nest?");
        trace::Record r = tmpl;
        r.addr = addr;
        r.delta = timing_.sampleDelta();
        out_.put(r);
        ++emitted_;
    }

    const Plan &plan_;
    trace::TimingModel &timing_;
    Out out_;
    const std::uint64_t maxRecords_;
    std::uint64_t emitted_ = 0;
    bool abandoned_ = false;
    std::vector<std::int64_t> env_;
    /** Byte address of each slot's reference in the running leaf. */
    std::vector<Addr> cursor_;
    /** Subscript values of the checked reference being emitted. */
    std::vector<std::int64_t> subs_;
};

} // namespace

TraceGenerator::TraceGenerator(const Program &program,
                               const TagVector &tags,
                               trace::TimingModel &timing)
    : program_(program), timing_(timing)
{
    SAC_ASSERT(program.finalized(),
               "the program must be finalized before execution");
    SAC_ASSERT(tags.size() == program.refCount(),
               "tag vector size must equal the static reference count");
    plan_ = std::make_unique<const Plan>(Lowering(program, tags).take());
}

TraceGenerator::~TraceGenerator() = default;

void
TraceGenerator::run(trace::Trace &out, std::uint64_t max_records)
{
    out.setName(program_.name());
    Executor<CountOut> counter(*plan_, timing_, CountOut{}, max_records);
    counter.run();
    if (!counter.abandoned())
        out.reserve(out.size() + counter.emitted());
    Executor<TraceOut>(*plan_, timing_, TraceOut{out}, max_records).run();
}

void
TraceGenerator::run(const trace::RecordSink &sink,
                    std::uint64_t max_records)
{
    Executor<SinkOut>(*plan_, timing_, SinkOut{sink}, max_records).run();
}

trace::Trace
generateUntagged(const Program &program, trace::TimingModel &timing)
{
    TagVector tags(program.refCount());
    TraceGenerator gen(program, tags, timing);
    trace::Trace t(program.name());
    gen.run(t);
    return t;
}

} // namespace loopnest
} // namespace sac
