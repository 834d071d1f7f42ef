/**
 * @file
 * A deliberately naive tree-walking interpreter of the loop-nest IR,
 * the oracle of the randomized generator differential test. It
 * evaluates every subscript from scratch, checks every dimension of
 * every reference and draws one timing-model delta per record (index
 * loads before the reference that uses them), with none of the
 * generator's lowering, strength reduction or check hoisting.
 */

#ifndef SAC_TESTS_REFERENCE_INTERPRETER_HH
#define SAC_TESTS_REFERENCE_INTERPRETER_HH

#include <cstdint>
#include <vector>

#include "src/loopnest/generator.hh"
#include "src/loopnest/program.hh"
#include "src/trace/timing_model.hh"
#include "src/trace/trace.hh"
#include "src/util/logging.hh"

namespace sac {
namespace test {

class ReferenceInterpreter
{
  public:
    ReferenceInterpreter(const loopnest::Program &program,
                         const loopnest::TagVector &tags,
                         trace::TimingModel &timing)
        : program_(program), tags_(tags), timing_(timing),
          env_(program.varCount(), 0)
    {
    }

    /** Execute the whole program into @p out. */
    void
    run(trace::Trace &out)
    {
        out_ = &out;
        stmts(program_.statements());
    }

  private:
    void
    stmts(const std::vector<loopnest::Stmt> &body)
    {
        for (const auto &s : body) {
            if (s.isLoop()) {
                loop(s.loop());
            } else if (s.isRef()) {
                ref(s.ref());
            } else if (s.isConditional()) {
                const auto &c = s.conditional();
                const std::int64_t r =
                    ((c.expr.eval(env_) % c.modulus) + c.modulus) %
                    c.modulus;
                if (r < c.threshold)
                    stmts(c.body);
            }
        }
    }

    void
    loop(const loopnest::Loop &l)
    {
        const std::int64_t lo = bound(l.lo);
        const std::int64_t hi = bound(l.hi);
        const std::int64_t saved = env_[l.var];
        for (std::int64_t i = lo; l.step > 0 ? i <= hi : i >= hi;
             i += l.step) {
            env_[l.var] = i;
            stmts(l.body);
        }
        env_[l.var] = saved;
    }

    std::int64_t
    bound(const loopnest::Bound &b)
    {
        return b.affine.eval(env_) + (b.indirect ? load(*b.indirect) : 0);
    }

    std::int64_t
    load(const loopnest::IndirectPart &p)
    {
        const loopnest::ArrayDecl &a = program_.array(p.array);
        const std::int64_t i = p.index.eval(env_);
        SAC_ASSERT(i >= 0 && i < a.elementCount(),
                   "index-array subscript out of bounds");
        emit(*a.base + static_cast<Addr>(i) * a.elemBytes, p.ref,
             trace::AccessType::Read);
        return a.data[static_cast<std::size_t>(i)];
    }

    void
    ref(const loopnest::ArrayRef &r)
    {
        const loopnest::ArrayDecl &a = program_.array(r.array);
        std::vector<std::int64_t> idx;
        for (const auto &s : r.subs)
            idx.push_back(s.affine.eval(env_) +
                          (s.indirect ? load(*s.indirect) : 0));
        std::int64_t linear = 0;
        std::int64_t stride = 1;
        for (std::size_t d = 0; d < idx.size(); ++d) {
            SAC_ASSERT(idx[d] >= 0 && idx[d] < a.dims[d],
                       "subscript out of bounds");
            linear += idx[d] * stride;
            stride *= a.dims[d];
        }
        emit(*a.base + static_cast<Addr>(linear) * a.elemBytes, r.ref,
             r.type);
    }

    void
    emit(Addr addr, RefId id, trace::AccessType type)
    {
        trace::Record rec;
        rec.addr = addr;
        rec.ref = id;
        rec.delta = timing_.sampleDelta();
        rec.size = elementBytes;
        rec.type = type;
        rec.temporal = tags_[id].temporal;
        rec.spatial = tags_[id].spatial;
        rec.spatialLevel = tags_[id].spatialLevel;
        out_->push(rec);
    }

    const loopnest::Program &program_;
    const loopnest::TagVector &tags_;
    trace::TimingModel &timing_;
    std::vector<std::int64_t> env_;
    trace::Trace *out_ = nullptr;
};

} // namespace test
} // namespace sac

#endif // SAC_TESTS_REFERENCE_INTERPRETER_HH
