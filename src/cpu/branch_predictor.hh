/**
 * @file
 * Branch direction predictors: GShare (the weak EMS core) and a
 * TAGE-style tagged-geometric predictor (medium/strong EMS and the
 * CS core), per Table III.
 */

#ifndef HYPERTEE_CPU_BRANCH_PREDICTOR_HH
#define HYPERTEE_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hypertee
{

class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict the direction of the branch at @p pc. */
    virtual bool predict(std::uint64_t pc) = 0;

    /** Train with the actual outcome (called after predict). */
    virtual void update(std::uint64_t pc, bool taken) = 0;

    /** Drop all learned state (context-switch invalidation). */
    virtual void reset() = 0;

    std::uint64_t lookups() const { return _lookups; }
    std::uint64_t mispredicts() const { return _mispredicts; }

    double
    mispredictRate() const
    {
        return _lookups ? static_cast<double>(_mispredicts) /
                              static_cast<double>(_lookups)
                        : 0.0;
    }

  protected:
    void
    record(bool correct)
    {
        ++_lookups;
        _mispredicts += correct ? 0 : 1; // branch-free on the hot path
    }

  private:
    std::uint64_t _lookups = 0;
    std::uint64_t _mispredicts = 0;
};

/**
 * Classic gshare: global history XOR pc indexes 2-bit counters.
 *
 * `final` so Core::run's per-predictor engine instantiation can
 * call the per-branch predictAndUpdate directly.
 */
class GshareBp final : public BranchPredictor
{
  public:
    explicit GshareBp(std::size_t entries, int history_bits = 9);

    // Header-inline, as is predictAndUpdate (the engine's call).
    bool
    predict(std::uint64_t pc) override
    {
        _lastPrediction = _counters[index(pc)] >= 2;
        return _lastPrediction;
    }

    void
    update(std::uint64_t pc, bool taken) override
    {
        std::uint8_t &ctr = _counters[index(pc)];
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        record(_lastPrediction == taken);
        _history = (_history << 1) | (taken ? 1 : 0);
    }

    /**
     * predict() immediately followed by update() for the same pc —
     * the only sequence the core engines ever issue. Fusing computes
     * index(pc) once (update reads the pre-shift history, so both
     * calls see the same index) and touches the counter with one
     * load/store pair. State changes and the returned prediction are
     * exactly those of the two-call sequence.
     */
    bool
    predictAndUpdate(std::uint64_t pc, bool taken)
    {
        std::size_t i = index(pc);
        std::uint8_t ctr = _counters[i];
        bool pred = ctr >= 2;
        _lastPrediction = pred;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        _counters[i] = ctr;
        record(pred == taken);
        _history = (_history << 1) | (taken ? 1 : 0);
        return pred;
    }

    void reset() override;

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        std::uint64_t x = (pc >> 2) ^ (_history & _historyMask);
        return _indexMask ? (x & _indexMask) : (x % _counters.size());
    }

    std::vector<std::uint8_t> _counters;
    std::uint64_t _history = 0;
    std::uint64_t _historyMask;
    /** _counters.size()-1 when a power of two, else 0 (use modulo). */
    std::uint64_t _indexMask = 0;
    bool _lastPrediction = false;
};

/**
 * Reduced TAGE: a bimodal base table plus tagged components with
 * geometrically growing history lengths. Captures the long-history
 * advantage over gshare that Table III's TAGE/GShare split implies.
 */
class TageBp final : public BranchPredictor
{
  public:
    /** @param entries total budget split across components. */
    explicit TageBp(std::size_t entries);

    // Header-inline, as is predictAndUpdate (the engine's call).
    bool
    predict(std::uint64_t pc) override
    {
        _altPred = _bimodal[bimodalIndex(pc)] >= 2;

        // Probe all four tables up front (independent loads the host
        // can issue in parallel) and keep the last — i.e. longest
        // history — tag match via selects. Equivalent to scanning
        // from the longest table down and stopping at the first hit,
        // but without the data-dependent break that mispredicted on
        // every provider change. Which table provides is decided by
        // the same tag compares; the extra probes are plain loads.
        refreshFolds();
        int provider = -1;
        std::size_t pidx = 0;
        bool tag_pred = false;
        for (int t = 0; t < numTables; ++t) {
            std::uint64_t h = _foldCache[t];
            std::size_t idx = tableIndexFolded(t, pc, h);
            const TaggedEntry &e = _tagged[t * _perTable + idx];
            bool match = e.tag == tableTagFolded(t, pc, h);
            provider = match ? t : provider;
            pidx = match ? idx : pidx;
            tag_pred = match ? (e.counter >= 0) : tag_pred;
        }
        _providerTable = provider;
        _providerIndex = pidx;
        _providerPred = provider >= 0 ? tag_pred : _altPred;
        return _providerPred;
    }

    void
    update(std::uint64_t pc, bool taken) override
    {
        record(_providerPred == taken);

        // Base table always trains. Saturating counters are written
        // select-style so the noisy `taken` bit steers conditional
        // moves, not a mispredicting branch; the stored values are
        // the same as the increment/decrement-with-guard form.
        std::uint8_t &base = _bimodal[bimodalIndex(pc)];
        int b = base;
        b += taken ? int(b < 3) : -int(b > 0);
        base = static_cast<std::uint8_t>(b);

        if (_providerTable >= 0) {
            TaggedEntry &e =
                _tagged[_providerTable * _perTable + _providerIndex];
            int c = e.counter;
            c += taken ? int(c < 3) : -int(c > -4);
            e.counter = static_cast<std::int8_t>(c);
            // Unconditional same-or-incremented store: the strengthen
            // condition depends on the noisy outcome bit, so a branch
            // here mispredicted constantly.
            bool strengthen =
                (_providerPred == taken) & (_providerPred != _altPred);
            e.useful = static_cast<std::uint8_t>(
                e.useful + (strengthen & (e.useful < 3)));
        }

        // On a mispredict, allocate into a longer-history table.
        if (_providerPred != taken) {
            int start = _providerTable + 1;
            for (int t = start; t < numTables; ++t) {
                // predict() refreshed every fold for this pc and the
                // history register only shifts below, so the cached
                // folds are still current here.
                std::uint64_t h = _foldCache[t];
                std::size_t idx = tableIndexFolded(t, pc, h);
                TaggedEntry &e = _tagged[t * _perTable + idx];
                if (e.useful == 0) {
                    e.tag = tableTagFolded(t, pc, h);
                    e.counter = taken ? 0 : -1;
                    break;
                }
                if (e.useful > 0)
                    --e.useful; // age out
            }
        }

        _history = (_history << 1) | (taken ? 1 : 0);
    }

    /**
     * Fused predict()+update() for the engines' per-branch sequence.
     * Byte stores into the component tables alias every member under
     * type-based alias analysis, so the separate calls reloaded masks
     * and indices around each store; the fused body computes the
     * bimodal index, folds and table probes once into locals, replays
     * the exact same loads/stores in the same order, and writes the
     * carried predict-state members at the end so the object state
     * matches the two-call sequence bit for bit.
     */
    bool
    predictAndUpdate(std::uint64_t pc, bool taken)
    {
        const std::size_t per = _perTable;
        std::size_t bi = bimodalIndex(pc);
        std::uint8_t base_ctr = _bimodal[bi];
        bool alt_pred = base_ctr >= 2;

        refreshFolds();
        int provider = -1;
        std::size_t pidx = 0;
        bool tag_pred = false;
        for (int t = 0; t < numTables; ++t) {
            std::uint64_t h = _foldCache[t];
            std::size_t idx = tableIndexFolded(t, pc, h);
            const TaggedEntry &e = _tagged[t * per + idx];
            bool match = e.tag == tableTagFolded(t, pc, h);
            provider = match ? t : provider;
            pidx = match ? idx : pidx;
            tag_pred = match ? (e.counter >= 0) : tag_pred;
        }
        bool pred = provider >= 0 ? tag_pred : alt_pred;

        record(pred == taken);

        int b = base_ctr;
        b += taken ? int(b < 3) : -int(b > 0);
        _bimodal[bi] = static_cast<std::uint8_t>(b);

        if (provider >= 0) {
            TaggedEntry &e = _tagged[provider * per + pidx];
            int c = e.counter;
            c += taken ? int(c < 3) : -int(c > -4);
            e.counter = static_cast<std::int8_t>(c);
            bool strengthen = (pred == taken) & (pred != alt_pred);
            e.useful = static_cast<std::uint8_t>(
                e.useful + (strengthen & (e.useful < 3)));
        }

        if (pred != taken) {
            int start = provider + 1;
            for (int t = start; t < numTables; ++t) {
                std::uint64_t h = _foldCache[t];
                std::size_t idx = tableIndexFolded(t, pc, h);
                TaggedEntry &e = _tagged[t * per + idx];
                if (e.useful == 0) {
                    e.tag = tableTagFolded(t, pc, h);
                    e.counter = taken ? 0 : -1;
                    break;
                }
                if (e.useful > 0)
                    --e.useful; // age out
            }
        }

        _history = (_history << 1) | (taken ? 1 : 0);

        _providerTable = provider;
        _providerIndex = pidx;
        _providerPred = pred;
        _altPred = alt_pred;
        return pred;
    }

    void reset() override;

  private:
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::int8_t counter = 0; ///< -4..3; >=0 means taken
        std::uint8_t useful = 0;
    };

    static constexpr int numTables = 4;

    /**
     * Index/tag from a fold already computed for this table's history
     * length — predict/update compute each table's fold exactly once
     * per call instead of once per index AND once per tag.
     */
    std::size_t
    tableIndexFolded(int table, std::uint64_t pc, std::uint64_t h) const
    {
        std::uint64_t x = (pc >> 2) ^ h ^ (h << 3) ^
                          static_cast<std::uint64_t>(table);
        return _taggedMask ? (x & _taggedMask) : (x % _perTable);
    }

    std::uint16_t
    tableTagFolded(int table, std::uint64_t pc, std::uint64_t h) const
    {
        return static_cast<std::uint16_t>(((pc >> 5) ^ (h >> 2) ^
                                           (table * 0x9e37)) &
                                          0x3ff);
    }

    /** General fold (reference form); refreshFolds() inlines its
     *  closed forms for the configured lengths. */
    std::uint64_t foldedHistory(int bits) const;

    std::size_t
    bimodalIndex(std::uint64_t pc) const
    {
        std::uint64_t x = pc >> 2;
        return _bimodalMask ? (x & _bimodalMask) : (x % _bimodal.size());
    }

    /**
     * Fill _foldCache with foldedHistory(len) for every table. These
     * are the closed forms of foldedHistory() for the fixed geometric
     * lengths {4, 12, 36, 108} the constructor sets up (and guards):
     * the fold offsets wrap modulo 64, so the 108-bit fold's three
     * low 16-bit windows each appear twice and cancel under XOR,
     * leaving only the top window.
     */
    void
    refreshFolds()
    {
        const std::uint64_t h = _history;
        _foldCache[0] = h & 0xf;
        _foldCache[1] = h & 0xfff;
        _foldCache[2] = (h ^ (h >> 16) ^ (h >> 32)) & 0xffff;
        _foldCache[3] = (h >> 48) & 0xffff;
    }

    std::vector<std::uint8_t> _bimodal;
    /** numTables segments of _perTable entries each, flattened so a
     *  table probe is one indexed load instead of two chased ones. */
    std::vector<TaggedEntry> _tagged;
    std::size_t _perTable = 0;
    int _historyLen[numTables];
    std::uint64_t _history = 0; // newest bit is LSB
    /** size-1 masks when the structures are powers of two, else 0. */
    std::uint64_t _bimodalMask = 0;
    std::uint64_t _taggedMask = 0;

    // State carried from predict() to update(). update() is
    // contractually called right after predict() for the same pc
    // (BranchPredictor::update doc), and the history register only
    // shifts at the end of update(), so the folds predict() computed
    // for tables [provider..numTables) are still exact when update's
    // allocation loop (tables provider+1..numTables) needs them.
    int _providerTable = -1;
    std::size_t _providerIndex = 0;
    bool _providerPred = false;
    bool _altPred = false;
    std::uint64_t _foldCache[numTables] = {0, 0, 0, 0};
};

/** Factory from a Table III "BHT" description. */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &kind,
                                               std::size_t entries);

} // namespace hypertee

#endif // HYPERTEE_CPU_BRANCH_PREDICTOR_HH
